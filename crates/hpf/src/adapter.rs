//! Meta-Chaos interface functions for [`HpfArray`] (the paper's HPF
//! runtime-library interface, used in its Figure 9 example).
//!
//! The Region type is an HPF array section ([`RegularSection`]).  For
//! all-contiguous distributions (`BLOCK`/`*`) ownership is resolved by box
//! intersection over owned elements only; cyclic distributions fall back
//! to a full scan with closed-form owner checks — still local, just more
//! arithmetic, exactly like a real HPF runtime's section analysis.

use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::wire::{Wire, WireReader};

use meta_chaos::adapter::{Location, McDescriptor, McObject};
use meta_chaos::region::{Region, RegularSection};
use meta_chaos::runs::{LocatedRun, OwnedRun, RunBuilder};
use meta_chaos::setof::SetOfRegions;
use meta_chaos::LocalAddr;

use crate::array::HpfArray;
use crate::dist::{DistKind, HpfDist};

/// Compact descriptor of an HPF distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpfDesc {
    /// The distribution directives.
    pub dist: HpfDist,
    /// Global ranks of the owning program, in arrangement order.
    pub members: Vec<usize>,
}

impl Wire for HpfDesc {
    fn write(&self, out: &mut Vec<u8>) {
        self.dist.write(out);
        self.members.write(out);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
        let dist = HpfDist::read(r)?;
        let members = Vec::<usize>::read(r)?;
        if dist.num_procs() != members.len() {
            return Err(SimError::Decode("member count mismatch".into()));
        }
        Ok(HpfDesc { dist, members })
    }
}

impl McDescriptor for HpfDesc {
    type Region = RegularSection;

    fn locate(&self, set: &SetOfRegions<RegularSection>, pos: usize) -> Location {
        let (ri, off) = set.locate_position(pos);
        let coords = set.regions()[ri].coords_of(off);
        let local = self.dist.owner(&coords);
        Location {
            rank: self.members[local],
            addr: self.dist.local_addr(local, &coords),
        }
    }

    fn locate_run(
        &self,
        set: &SetOfRegions<RegularSection>,
        pos: usize,
        max_len: usize,
    ) -> LocatedRun {
        debug_assert!(max_len >= 1);
        let (ri, off) = set.locate_position(pos);
        let region = &set.regions()[ri];
        let nd = region.ndim();
        let coords = region.coords_of(off);
        let local = self.dist.owner(&coords);
        let rank = self.members[local];
        let addr = self.dist.local_addr(local, &coords);
        if nd == 0 {
            return LocatedRun {
                pos,
                len: 1,
                rank,
                addr,
                stride: 1,
            };
        }
        // Consecutive positions step the last (fastest) dimension; the run
        // ends at the section row, the owner boundary (block edge or cyclic
        // chunk edge), or max_len — whichever comes first.  Within that
        // span the HPF local-addressing formula advances by the section
        // stride for every directive kind.
        let ls = &region.dims()[nd - 1];
        let c = coords[nd - 1];
        let k = ls.position_of(c).expect("coords came from coords_of");
        let row_left = ls.count() - k;
        let d = nd - 1;
        let steps = match self.dist.kinds()[d] {
            DistKind::Collapsed => row_left,
            DistKind::Block => {
                let n = self.dist.shape()[d];
                let g = self.dist.proc_dims()[d];
                let o = DistKind::Block.owner(n, g, c);
                let (_, bhi) = self.dist.block_bounds(d, o);
                (bhi - c).div_ceil(ls.stride)
            }
            DistKind::Cyclic(kk) => {
                let chunk_end = (c / kk + 1) * kk;
                (chunk_end - c).div_ceil(ls.stride)
            }
        };
        LocatedRun {
            pos,
            len: row_left.min(steps).min(max_len),
            rank,
            addr,
            stride: ls.stride as isize,
        }
    }

    fn locate_all(&self, set: &SetOfRegions<RegularSection>) -> Vec<Location> {
        let mut out = Vec::with_capacity(set.total_len());
        for region in set.regions() {
            let mut it = region.iter_coords();
            while let Some(coords) = it.advance() {
                let local = self.dist.owner(coords);
                out.push(Location {
                    rank: self.members[local],
                    addr: self.dist.local_addr(local, coords),
                });
            }
        }
        out
    }
}

impl<T: Copy + Default> McObject<T> for HpfArray<T> {
    type Region = RegularSection;
    type Descriptor = HpfDesc;

    fn deref_owned(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<RegularSection>,
    ) -> Vec<(usize, LocalAddr)> {
        let me = self.my_local();
        let dist = self.dist();
        let mut out = Vec::new();
        let mut region_offset = 0usize;
        let mut inspected = 0usize;

        if dist.is_all_contiguous() {
            // Fast path: ownership is a box; intersect like Parti does.
            let pc = dist.proc_coords(me);
            let my_box: Vec<(usize, usize)> = (0..dist.shape().len())
                .map(|d| dist.block_bounds(d, pc[d]))
                .collect();
            for region in set.regions() {
                if let Some(sub) = region.intersect_box(&my_box) {
                    let mut it = sub.iter_coords();
                    while let Some(coords) = it.advance() {
                        let pos =
                            region_offset + region.position_of(coords).expect("subset of region");
                        out.push((pos, dist.local_addr(me, coords)));
                    }
                    inspected += sub.len();
                }
                region_offset += region.len();
            }
        } else {
            // General path: closed-form owner test per section element.
            for region in set.regions() {
                let mut it = region.iter_coords();
                let mut k = 0usize;
                while let Some(coords) = it.advance() {
                    if dist.owner(coords) == me {
                        out.push((region_offset + k, dist.local_addr(me, coords)));
                    }
                    k += 1;
                }
                inspected += region.len();
                region_offset += region.len();
            }
            out.sort_unstable_by_key(|&(pos, _)| pos);
        }
        comm.ep().charge_owner_calc(inspected + set.num_regions());
        out
    }

    fn deref_owned_runs(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<RegularSection>,
    ) -> Vec<OwnedRun> {
        let dist = self.dist();
        if !dist.is_all_contiguous() {
            // Cyclic dims break ownership into chunk-sized pieces; keep the
            // per-element scan and coalesce what it yields.  The charge is
            // whatever deref_owned charges.
            return meta_chaos::coalesce_owned(&self.deref_owned(comm, set));
        }
        // Contiguous fast path: ownership is a box, and each row of an
        // intersected sub-section is one run — O(rows) work, same
        // virtual-clock charge as deref_owned.
        let me = self.my_local();
        let pc = dist.proc_coords(me);
        let my_box: Vec<(usize, usize)> = (0..dist.shape().len())
            .map(|d| dist.block_bounds(d, pc[d]))
            .collect();
        let mut builder = RunBuilder::new();
        let mut region_offset = 0usize;
        let mut inspected = 0usize;
        for region in set.regions() {
            if let Some(sub) = region.intersect_box(&my_box) {
                let nd = sub.ndim();
                let (row_len, stride) = if nd == 0 {
                    (sub.len(), 1isize)
                } else {
                    let ls = &sub.dims()[nd - 1];
                    (ls.count(), ls.stride as isize)
                };
                let rows = sub.len().checked_div(row_len).unwrap_or(0);
                let mut coords = vec![0usize; nd];
                for r in 0..rows {
                    sub.coords_into(r * row_len, &mut coords);
                    let pos =
                        region_offset + region.position_of(&coords).expect("subset of region");
                    builder.push_run(pos, row_len, dist.local_addr(me, &coords), stride);
                }
                inspected += sub.len();
            }
            region_offset += region.len();
        }
        comm.ep().charge_owner_calc(inspected + set.num_regions());
        builder.finish()
    }

    fn descriptor(&self, _comm: &mut Comm<'_>) -> HpfDesc {
        HpfDesc {
            dist: self.dist().clone(),
            members: self.members().to_vec(),
        }
    }

    fn epoch(&self) -> u64 {
        HpfArray::epoch(self)
    }

    fn storage(&self) -> &[T] {
        self.local()
    }

    fn storage_mut(&mut self) -> &mut [T] {
        self.local_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistKind;
    use mcsim::group::Group;
    use mcsim::model::MachineModel;
    use mcsim::world::World;
    use meta_chaos::build::{compute_schedule, BuildMethod};
    use meta_chaos::datamove::data_move;
    use meta_chaos::Side;

    #[test]
    fn deref_owned_matches_descriptor_for_cyclic() {
        let world = World::with_model(3, MachineModel::zero());
        world.run(|ep| {
            let g = Group::world(3);
            let dist = HpfDist::new(vec![15], vec![DistKind::Cyclic(2)], vec![3]);
            let a = HpfArray::<f64>::new(&g, ep.rank(), dist);
            let set =
                SetOfRegions::single(RegularSection::new(vec![meta_chaos::DimSlice::strided(
                    1, 15, 2,
                )]));
            let mut comm = Comm::new(ep, g);
            let owned = a.deref_owned(&mut comm, &set);
            let desc = a.descriptor(&mut comm);
            let me = comm.ep_ref().rank();
            let all = desc.locate_all(&set);
            for &(pos, addr) in &owned {
                assert_eq!(all[pos], Location { rank: me, addr });
            }
            let mine = all.iter().filter(|l| l.rank == me).count();
            assert_eq!(mine, owned.len());
        });
    }

    #[test]
    fn deref_owned_runs_expand_to_deref_owned() {
        // Both the contiguous fast path and the cyclic fallback.
        let dists = [
            HpfDist::block_block(9, 8, 2, 2),
            HpfDist::new(
                vec![9, 8],
                vec![DistKind::Cyclic(2), DistKind::Block],
                vec![2, 2],
            ),
        ];
        for dist in dists {
            let world = World::with_model(4, MachineModel::zero());
            world.run(|ep| {
                let g = Group::world(4);
                let a = HpfArray::<f64>::new(&g, ep.rank(), dist.clone());
                let set = SetOfRegions::from_regions(vec![
                    RegularSection::of_bounds(&[(1, 8), (2, 7)]),
                    RegularSection::new(vec![
                        meta_chaos::DimSlice::strided(0, 9, 2),
                        meta_chaos::DimSlice::strided(1, 8, 3),
                    ]),
                ]);
                let mut comm = Comm::new(ep, g);
                let owned = a.deref_owned(&mut comm, &set);
                let runs = a.deref_owned_runs(&mut comm, &set);
                let mut expanded = Vec::new();
                for r in &runs {
                    for k in 0..r.len {
                        expanded.push((r.pos + k, r.addr_at(k)));
                    }
                }
                assert_eq!(expanded, owned);
            });
        }
    }

    #[test]
    fn locate_run_agrees_with_locate_for_every_kind() {
        let dists = [
            HpfDist::new(
                vec![10, 9],
                vec![DistKind::Block, DistKind::Cyclic(3)],
                vec![2, 2],
            ),
            HpfDist::new(
                vec![10, 9],
                vec![DistKind::Block, DistKind::Collapsed],
                vec![4, 1],
            ),
            HpfDist::new(
                vec![10, 9],
                vec![DistKind::Cyclic(1), DistKind::Block],
                vec![2, 2],
            ),
        ];
        for dist in dists {
            let desc = HpfDesc {
                dist,
                members: (0..4).collect(),
            };
            let set = SetOfRegions::from_regions(vec![
                RegularSection::of_bounds(&[(1, 9), (0, 9)]),
                RegularSection::new(vec![
                    meta_chaos::DimSlice::strided(0, 10, 3),
                    meta_chaos::DimSlice::strided(1, 9, 2),
                ]),
            ]);
            let n = set.total_len();
            let mut pos = 0;
            while pos < n {
                let run = desc.locate_run(&set, pos, n - pos);
                assert!(run.pos == pos && run.len >= 1 && run.end() <= n);
                for k in 0..run.len {
                    let loc = desc.locate(&set, pos + k);
                    assert_eq!(loc.rank, run.rank, "pos {}", pos + k);
                    assert_eq!(loc.addr, run.addr_at(k), "pos {}", pos + k);
                }
                pos = run.end();
            }
        }
    }

    #[test]
    fn hpf_fig9_example() {
        // The paper's Figure 9: two HPF programs exchange
        // A[0:50, 9:60) = B[49:100, 49:100) (0-based half-open here);
        // run as one SPMD program with two (block,block) arrays.
        let world = World::with_model(4, MachineModel::zero());
        let out = world.run(|ep| {
            let g = Group::world(4);
            let mut b = HpfArray::<f64>::new(&g, ep.rank(), HpfDist::block_block(200, 100, 2, 2));
            b.for_each_owned(|c, v| *v = (c[0] * 1000 + c[1]) as f64);
            let a = HpfArray::<f64>::new(&g, ep.rank(), HpfDist::block_block(50, 60, 2, 2));
            let sset = SetOfRegions::single(RegularSection::of_bounds(&[(49, 99), (49, 99)]));
            let dset = SetOfRegions::single(RegularSection::of_bounds(&[(0, 50), (9, 59)]));
            let mut a = a;
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&b, &sset)),
                &g,
                Some(Side::new(&a, &dset)),
                BuildMethod::Cooperation,
            )
            .unwrap();
            data_move(ep, &sched, &b, &mut a);
            let mut got = Vec::new();
            for i in 0..50 {
                for j in 0..60 {
                    if a.owns(&[i, j]) {
                        got.push((i, j, a.get(&[i, j])));
                    }
                }
            }
            got
        });
        for vals in out.results {
            for (i, j, v) in vals {
                let expect = if (9..59).contains(&j) {
                    ((i + 49) * 1000 + (j - 9 + 49)) as f64
                } else {
                    0.0
                };
                assert_eq!(v, expect, "A[{i}][{j}]");
            }
        }
    }

    #[test]
    fn cyclic_to_block_copy() {
        // Meta-Chaos moving between different HPF distributions.
        let world = World::with_model(2, MachineModel::zero());
        let out = world.run(|ep| {
            let g = Group::world(2);
            let mut src = HpfArray::<f64>::new(
                &g,
                ep.rank(),
                HpfDist::new(vec![10], vec![DistKind::Cyclic(1)], vec![2]),
            );
            src.for_each_owned(|c, v| *v = c[0] as f64 + 0.5);
            let mut dst = HpfArray::<f64>::new(&g, ep.rank(), HpfDist::block_1d(10, 2));
            let set = SetOfRegions::single(RegularSection::whole(&[10]));
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &set)),
                &g,
                Some(Side::new(&dst, &set)),
                BuildMethod::Duplication,
            )
            .unwrap();
            data_move(ep, &sched, &src, &mut dst);
            let mut got = Vec::new();
            for x in 0..10 {
                if dst.owns(&[x]) {
                    got.push((x, dst.get(&[x])));
                }
            }
            got
        });
        for vals in out.results {
            for (x, v) in vals {
                assert_eq!(v, x as f64 + 0.5);
            }
        }
    }
}
