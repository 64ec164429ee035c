//! The library interface (paper §4.1.3).
//!
//! To join the framework, a data-parallel library provides "a standard set
//! of inquiry functions": dereference elements of a SetOfRegions to owning
//! processor + local address, manipulate its Regions to build a
//! linearization, and pack/unpack elements to/from communication buffers.
//! [`McObject`] is that contract; [`McDescriptor`] is the shippable
//! distribution descriptor that enables the *duplication* schedule-build
//! strategy.
//!
//! A [`LocalAddr`] is an offset into one dense local array per rank, so
//! packing and unpacking need nothing from a library beyond that array:
//! it exposes [`McObject::storage`] / [`McObject::storage_mut`], and the
//! copying (one slice copy per address run, then one virtual-clock copy
//! charge) is written once, here and in [`crate::datamove`].
//!
//! The four workspace libraries (`multiblock`, `chaos`, `hpf`, `tulip`)
//! implement these traits; see the `custom_library` example for how little
//! a fifth library needs.

use mcsim::error::SimError;
use mcsim::group::Comm;
use mcsim::prelude::Endpoint;
use mcsim::wire::{Wire, WireReader};

use crate::region::Region;
use crate::runs::{coalesce_owned, LocatedRun, OwnedRun};
use crate::schedule::AddrRuns;
use crate::setof::SetOfRegions;
use crate::LocalAddr;

/// Where one element lives: owning rank (global, world-wide) and local
/// address within that rank's storage for the data structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Owning global rank.
    pub rank: usize,
    /// Offset within the owner's local storage.
    pub addr: LocalAddr,
}

/// A shippable description of a data structure's distribution, sufficient
/// to dereference any element *locally* (the duplication path, §5.1).
///
/// For regular distributions this is a few integers; for Chaos it is the
/// entire translation table — "the same size as the data array", which is
/// why the paper calls duplication impractical for Chaos across programs.
pub trait McDescriptor: Wire + Clone + Send {
    /// The Region type this descriptor understands.
    type Region: Region + Wire;

    /// Location of element `pos` of the linearization of `set`.
    fn locate(&self, set: &SetOfRegions<Self::Region>, pos: usize) -> Location;

    /// Locate every element of `set`, in linearization order.  The default
    /// calls [`Self::locate`] per element; libraries may override with a
    /// faster batch implementation.
    fn locate_all(&self, set: &SetOfRegions<Self::Region>) -> Vec<Location> {
        (0..set.total_len()).map(|p| self.locate(set, p)).collect()
    }

    /// Locate the run of consecutive linearization positions starting at
    /// `pos` that live contiguously (in one address progression) on one
    /// rank — at most `max_len` positions.
    ///
    /// The default answers a length-1 run from [`Self::locate`], which is
    /// always correct; regular descriptors override it with closed-form
    /// interval arithmetic so the duplication build walks O(regions) runs
    /// instead of O(elements) locations.  Implementations must return
    /// `1 <= len <= max_len`.
    fn locate_run(
        &self,
        set: &SetOfRegions<Self::Region>,
        pos: usize,
        max_len: usize,
    ) -> LocatedRun {
        debug_assert!(max_len >= 1);
        let loc = self.locate(set, pos);
        LocatedRun {
            pos,
            len: 1,
            rank: loc.rank,
            addr: loc.addr,
            stride: 1,
        }
    }

    /// Locate the span `start .. start + len` as a sorted, disjoint run
    /// list covering every position exactly once.  Built on
    /// [`Self::locate_run`], merging runs that continue each other (so a
    /// default length-1 implementation still yields maximal runs for
    /// regular stretches).
    fn locate_runs(
        &self,
        set: &SetOfRegions<Self::Region>,
        start: usize,
        len: usize,
    ) -> Vec<LocatedRun> {
        let mut out: Vec<LocatedRun> = Vec::new();
        let end = start + len;
        let mut pos = start;
        while pos < end {
            let run = self.locate_run(set, pos, end - pos);
            debug_assert!(run.pos == pos && run.len >= 1 && run.end() <= end);
            pos = run.end();
            let merged = match out.last_mut() {
                Some(last) => last.try_merge(&run),
                None => false,
            };
            if !merged {
                out.push(run);
            }
        }
        out
    }

    /// Charge the virtual clock for `n` descriptor-based locates.
    ///
    /// Default: two closed-form operations per element (resolve the
    /// linearization position to coordinates, then compute the owner).
    /// Descriptors that probe a replicated translation table override this
    /// with the table-probe cost — that difference is what makes the
    /// duplication build "about twice" cooperation when Chaos is involved
    /// (paper Table 2) yet cheaper than cooperation for regular–regular
    /// transfers (Table 5).
    fn charge_locates(&self, ep: &mut mcsim::prelude::Endpoint, n: usize) {
        ep.charge_owner_calc(2 * n);
    }
}

/// The interface functions a distributed data structure exports to
/// Meta-Chaos (one instance per rank of the owning program, SPMD).
pub trait McObject<T: Copy> {
    /// The library's Region type.
    type Region: Region + Wire;
    /// The library's distribution descriptor.
    type Descriptor: McDescriptor<Region = Self::Region>;

    /// Collective over the owning program (`comm`): dereference the
    /// elements of `set` and return, on each rank, the elements *this rank
    /// owns* as `(linearization position, local address)` pairs, sorted by
    /// position.
    ///
    /// Regular libraries answer from closed-form owner arithmetic with no
    /// communication; Chaos consults its distributed translation table
    /// (request–reply with the table owners).
    fn deref_owned(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<Self::Region>,
    ) -> Vec<(usize, LocalAddr)>;

    /// Collective over the owning program: as [`McObject::deref_owned`],
    /// but run-length compressed — sorted, disjoint
    /// `(pos_start, len, addr_start, stride)` runs covering exactly the
    /// elements this rank owns.
    ///
    /// The default dereferences element-wise and coalesces, which is
    /// always correct but still O(elements).  Regular libraries override
    /// it to emit one run per section row straight from owner arithmetic,
    /// making the inspector O(regions); Chaos coalesces consecutive
    /// translation-table entries and naturally degrades to length-1 runs.
    /// The virtual-clock charges must match [`McObject::deref_owned`] —
    /// the *dereference work* is the same, only its representation shrinks.
    fn deref_owned_runs(
        &self,
        comm: &mut Comm<'_>,
        set: &SetOfRegions<Self::Region>,
    ) -> Vec<OwnedRun> {
        coalesce_owned(&self.deref_owned(comm, set))
    }

    /// Collective over the owning program: produce a descriptor every rank
    /// of the program holds in full (a Chaos implementation gathers its
    /// table pieces here, and charges the clock accordingly).
    fn descriptor(&self, comm: &mut Comm<'_>) -> Self::Descriptor;

    /// Distribution epoch: a counter the library bumps every time this
    /// object is *redistributed* (Chaos `remap`, HPF `REDISTRIBUTE`,
    /// Multiblock `regrid`).  Schedules record the epochs they were built
    /// against; executors reject stale schedules with
    /// [`McError`](crate::McError)`::StaleSchedule` and the cached `mc_*`
    /// API folds epochs into its keys so a bump forces a rebuild.
    ///
    /// The default (constant 0) is correct for libraries whose objects are
    /// never redistributed in place.
    fn epoch(&self) -> u64 {
        0
    }

    /// This rank's local storage: the dense array every [`LocalAddr`] this
    /// object hands out indexes into.
    fn storage(&self) -> &[T];

    /// Mutable local storage, addressed like [`McObject::storage`].
    fn storage_mut(&mut self) -> &mut [T];

    /// Encode the elements covered by `runs` straight into a wire buffer
    /// (payload bytes only — the caller writes the element-count header):
    /// one [`Wire::write_slice`] per run out of [`McObject::storage`], so a
    /// send packs source storage → wire buffer in a single copy.
    ///
    /// Implementations do not override this or
    /// [`McObject::unpack_runs_wire`]: the per-run copy and its price (one
    /// `charge_copy_bytes` of the run bytes per call) are the same for
    /// every library.
    fn pack_runs_wire(&self, ep: &mut Endpoint, runs: &AddrRuns, out: &mut Vec<u8>)
    where
        T: Wire,
    {
        let data = self.storage();
        for &(start, len) in runs.runs() {
            T::write_slice(&data[start..start + len], out);
        }
        ep.charge_copy_bytes(runs.len() * std::mem::size_of::<T>());
    }

    /// Decode `runs.len()` elements from a received payload straight into
    /// the elements covered by `runs` (the caller has already consumed the
    /// count header): one [`Wire::read_slice`] per run into
    /// [`McObject::storage_mut`].
    fn unpack_runs_wire(
        &mut self,
        ep: &mut Endpoint,
        runs: &AddrRuns,
        r: &mut WireReader<'_>,
    ) -> Result<(), SimError>
    where
        T: Wire,
    {
        let data = self.storage_mut();
        for &(start, len) in runs.runs() {
            T::read_slice(r, &mut data[start..start + len])?;
        }
        ep.charge_copy_bytes(runs.len() * std::mem::size_of::<T>());
        Ok(())
    }
}

/// One side (source or destination) of a transfer: the object and the
/// regions to move.  The owning program's [`Group`](mcsim::group::Group) is passed alongside to
/// [`crate::compute_schedule`] (every rank knows both program groups, but
/// only the owning program's ranks hold the object itself).
pub struct Side<'a, T: Copy, O: McObject<T>> {
    /// The distributed data structure.
    pub obj: &'a O,
    /// The elements to transfer, as the library's regions.
    pub set: &'a SetOfRegions<O::Region>,
    _t: std::marker::PhantomData<T>,
}

impl<'a, T: Copy, O: McObject<T>> Side<'a, T, O> {
    /// Bundle a side.
    pub fn new(obj: &'a O, set: &'a SetOfRegions<O::Region>) -> Self {
        Side {
            obj,
            set,
            _t: std::marker::PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::IndexSet;

    /// A toy descriptor: element `g` lives on rank `g % p`, addr `g / p`.
    #[derive(Clone, Debug, PartialEq)]
    struct CyclicDesc {
        p: usize,
    }

    impl Wire for CyclicDesc {
        fn write(&self, out: &mut Vec<u8>) {
            self.p.write(out);
        }
        fn read(r: &mut WireReader<'_>) -> Result<Self, SimError> {
            Ok(CyclicDesc { p: usize::read(r)? })
        }
    }

    impl McDescriptor for CyclicDesc {
        type Region = IndexSet;
        fn locate(&self, set: &SetOfRegions<IndexSet>, pos: usize) -> Location {
            let (ri, off) = set.locate_position(pos);
            let g = set.regions()[ri].index(off);
            Location {
                rank: g % self.p,
                addr: g / self.p,
            }
        }
    }

    #[test]
    fn default_locate_all_matches_locate() {
        let d = CyclicDesc { p: 3 };
        let set = SetOfRegions::from_regions(vec![
            IndexSet::new(vec![4, 7, 9]),
            IndexSet::new(vec![0, 2]),
        ]);
        let all = d.locate_all(&set);
        assert_eq!(all.len(), 5);
        for (pos, loc) in all.iter().enumerate() {
            assert_eq!(*loc, d.locate(&set, pos));
        }
        assert_eq!(all[0], Location { rank: 1, addr: 1 }); // g=4, p=3
    }

    #[test]
    fn default_locate_runs_covers_span_and_merges() {
        let d = CyclicDesc { p: 3 };
        let set = SetOfRegions::from_regions(vec![
            IndexSet::new(vec![4, 7, 9]),
            IndexSet::new(vec![0, 2]),
        ]);
        let runs = d.locate_runs(&set, 0, 5);
        // Positions 0..5 resolve to ranks 1,1,0,0,2 — three maximal runs.
        assert_eq!(runs.len(), 3);
        // Tiling: sorted, disjoint, covering 0..5 exactly.
        let mut next = 0;
        for r in &runs {
            assert_eq!(r.pos, next);
            next = r.end();
        }
        assert_eq!(next, 5);
        // Expansion agrees with per-position locate.
        for r in &runs {
            for k in 0..r.len {
                let loc = d.locate(&set, r.pos + k);
                assert_eq!((r.rank, r.addr_at(k)), (loc.rank, loc.addr));
            }
        }
        // A sub-span works too.
        let tail = d.locate_runs(&set, 3, 2);
        assert_eq!(tail[0].pos, 3);
        assert_eq!(tail.last().unwrap().end(), 5);
    }

    /// The provided wire copies on a dense-storage library, over runs out
    /// of address order with gaps between them: the packed bytes are the
    /// per-element encoding, unpacking writes exactly the covered
    /// addresses, and each call is charged as one copy of the run bytes.
    #[test]
    fn provided_wire_copies_cover_runs_exactly() {
        use crate::schedule::AddrRuns;
        use crate::testlib::BlockVec;
        use mcsim::group::Group;
        use mcsim::model::MachineModel;
        use mcsim::world::World;

        World::with_model(1, MachineModel::sp2()).run(|ep| {
            let g = Group::world(1);
            let mut runs = AddrRuns::new();
            runs.push_run(9, 3);
            runs.push_run(1, 4);
            runs.push_run(14, 1);
            let one_copy =
                (runs.len() * std::mem::size_of::<f64>()) as f64 * ep.model().byte_copy_cost;

            let src = BlockVec::create(&g, 0, 16, |i| i as f64 + 0.5);
            let before = ep.clock();
            let mut bytes = Vec::new();
            src.pack_runs_wire(ep, &runs, &mut bytes);
            assert_eq!(ep.clock().to_bits(), (before + one_copy).to_bits());
            let mut want = Vec::new();
            for a in runs.iter() {
                src.data[a].write(&mut want);
            }
            assert_eq!(bytes, want);

            let mut dst = BlockVec::create(&g, 0, 16, |_| -1.0);
            let before = ep.clock();
            let mut r = WireReader::new(&bytes);
            dst.unpack_runs_wire(ep, &runs, &mut r).unwrap();
            assert_eq!(ep.clock().to_bits(), (before + one_copy).to_bits());
            assert_eq!(r.remaining(), 0);
            let covered: Vec<usize> = runs.iter().collect();
            for (a, &v) in dst.data.iter().enumerate() {
                let want = if covered.contains(&a) {
                    src.data[a]
                } else {
                    -1.0
                };
                assert_eq!(v, want, "address {a}");
            }
        });
    }
}
