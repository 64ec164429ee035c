//! Schedule-parity property test for the run-based inspector: for every
//! source→destination pair of the four libraries and several seeds, the
//! interval-arithmetic `compute_schedule` must produce a **byte-identical**
//! [`Schedule`] — same sends/recvs/local_pairs, same seq/epoch/elem_tag
//! provenance — as the element-wise `compute_schedule_reference`, and the
//! executed `data_move` must put exactly the same message counts and sizes
//! on the wire.
//!
//! Each build runs in its own fresh `World` so the per-rank schedule
//! sequence counters (endpoint scratch slots) start from the same state
//! and the seq numbers are comparable across implementations.

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use meta_chaos::build::{compute_schedule, compute_schedule_reference, BuildMethod};
use meta_chaos::datamove::data_move;
use meta_chaos::region::{IndexSet, RegularSection};
use meta_chaos::schedule::Schedule;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{McObject, Side};
use meta_chaos_repro::test_world;

use chaos::{IrregArray, Partition};
use hpf::{HpfArray, HpfDist};
use multiblock::MultiblockArray;
use tulip::DistributedCollection;

const N: usize = 48;
const P: usize = 4;
const SEEDS: [u64; 3] = [7, 19, 31];

/// Everything observable about one rank's schedule and the wire traffic
/// of executing it once.
#[derive(Debug, Clone, PartialEq)]
struct SchedDump {
    seq: u32,
    total_elems: usize,
    src_epoch: u64,
    dst_epoch: u64,
    elem_tag: u64,
    elem_size: u32,
    sends: Vec<(usize, Vec<(usize, usize)>)>,
    recvs: Vec<(usize, Vec<(usize, usize)>)>,
    local_pairs: Vec<(usize, usize, usize)>,
    /// `data_move` NetStats delta: messages sent to each peer.
    move_msgs_to: Vec<u64>,
    /// `data_move` NetStats delta: bytes sent to each peer.
    move_bytes_to: Vec<u64>,
}

fn dump(sched: &Schedule, move_msgs_to: Vec<u64>, move_bytes_to: Vec<u64>) -> SchedDump {
    SchedDump {
        seq: sched.seq(),
        total_elems: sched.total_elems,
        src_epoch: sched.src_epoch(),
        dst_epoch: sched.dst_epoch(),
        elem_tag: sched.elem_tag(),
        elem_size: sched.elem_size(),
        sends: sched
            .sends
            .iter()
            .map(|(p, a)| (*p, a.runs().to_vec()))
            .collect(),
        recvs: sched
            .recvs
            .iter()
            .map(|(p, a)| (*p, a.runs().to_vec()))
            .collect(),
        local_pairs: sched.local_pairs.runs().to_vec(),
        move_msgs_to,
        move_bytes_to,
    }
}

/// Seeded Fisher–Yates permutation of `0..N` (tiny LCG, no external RNG).
fn permutation(seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut v: Vec<usize> = (0..N).collect();
    for i in (1..N).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn mk_multiblock(
    _ep: &mut Endpoint,
    g: &Group,
    rank: usize,
    _seed: u64,
) -> (MultiblockArray<f64>, SetOfRegions<RegularSection>) {
    let mut a = MultiblockArray::<f64>::new(g, rank, &[6, 8]);
    a.fill_with(|c| (c[0] * 8 + c[1]) as f64);
    (a, SetOfRegions::single(RegularSection::whole(&[6, 8])))
}

fn mk_hpf(
    _ep: &mut Endpoint,
    g: &Group,
    rank: usize,
    _seed: u64,
) -> (HpfArray<f64>, SetOfRegions<RegularSection>) {
    let mut h = HpfArray::<f64>::new(
        g,
        rank,
        HpfDist::new(vec![N], vec![hpf::DistKind::Cyclic(3)], vec![P]),
    );
    h.for_each_owned(|c, v| *v = c[0] as f64);
    (h, SetOfRegions::single(RegularSection::whole(&[N])))
}

fn mk_tulip(
    _ep: &mut Endpoint,
    g: &Group,
    rank: usize,
    seed: u64,
) -> (DistributedCollection<f64>, SetOfRegions<IndexSet>) {
    let mut c = DistributedCollection::<f64>::new(g, rank, N);
    c.apply(|gi, v| *v = gi as f64);
    (c, SetOfRegions::single(IndexSet::new(permutation(seed))))
}

fn mk_chaos(
    ep: &mut Endpoint,
    g: &Group,
    _rank: usize,
    seed: u64,
) -> (IrregArray<f64>, SetOfRegions<IndexSet>) {
    let x = {
        let mut comm = Comm::new(ep, g.clone());
        IrregArray::create(&mut comm, N, Partition::Random(seed), |gi| gi as f64)
    };
    (
        x,
        SetOfRegions::single(IndexSet::new(permutation(seed.wrapping_add(3)))),
    )
}

/// Build the same transfer through one inspector implementation and run
/// it once, returning every rank's schedule dump.
fn one_world<S, D, MS, MD>(
    mk_src: MS,
    mk_dst: MD,
    method: BuildMethod,
    seed: u64,
    reference: bool,
) -> Vec<SchedDump>
where
    S: McObject<f64> + 'static,
    D: McObject<f64> + 'static,
    MS: Fn(&mut Endpoint, &Group, usize, u64) -> (S, SetOfRegions<S::Region>) + Send + Sync,
    MD: Fn(&mut Endpoint, &Group, usize, u64) -> (D, SetOfRegions<D::Region>) + Send + Sync,
{
    test_world(P)
        .run(move |ep| {
            let g = Group::world(P);
            let (src, sset) = mk_src(ep, &g, ep.rank(), seed);
            let (mut dst, dset) = mk_dst(ep, &g, ep.rank(), seed.wrapping_add(17));
            let sched = if reference {
                compute_schedule_reference(
                    ep,
                    &g,
                    &g,
                    Some(Side::new(&src, &sset)),
                    &g,
                    Some(Side::new(&dst, &dset)),
                    method,
                )
            } else {
                compute_schedule(
                    ep,
                    &g,
                    &g,
                    Some(Side::new(&src, &sset)),
                    &g,
                    Some(Side::new(&dst, &dset)),
                    method,
                )
            }
            .expect("schedule builds");
            let before = ep.stats_snapshot();
            data_move(ep, &sched, &src, &mut dst);
            let delta = ep.stats_snapshot().since(&before);
            dump(&sched, delta.msgs_to.clone(), delta.bytes_to.clone())
        })
        .results
}

macro_rules! parity_case {
    ($name:ident, $mk_src:ident, $mk_dst:ident) => {
        #[test]
        fn $name() {
            for method in [BuildMethod::Cooperation, BuildMethod::Duplication] {
                for seed in SEEDS {
                    let runs = one_world($mk_src, $mk_dst, method, seed, false);
                    let refs = one_world($mk_src, $mk_dst, method, seed, true);
                    assert_eq!(runs.len(), refs.len());
                    for (rank, (a, b)) in runs.iter().zip(&refs).enumerate() {
                        assert_eq!(
                            a,
                            b,
                            "{}: rank {rank} diverges (seed {seed}, {method:?})",
                            stringify!($name)
                        );
                    }
                }
            }
        }
    };
}

parity_case!(multiblock_to_multiblock, mk_multiblock, mk_multiblock);
parity_case!(multiblock_to_hpf, mk_multiblock, mk_hpf);
parity_case!(multiblock_to_tulip, mk_multiblock, mk_tulip);
parity_case!(multiblock_to_chaos, mk_multiblock, mk_chaos);
parity_case!(hpf_to_multiblock, mk_hpf, mk_multiblock);
parity_case!(hpf_to_hpf, mk_hpf, mk_hpf);
parity_case!(hpf_to_tulip, mk_hpf, mk_tulip);
parity_case!(hpf_to_chaos, mk_hpf, mk_chaos);
parity_case!(tulip_to_multiblock, mk_tulip, mk_multiblock);
parity_case!(tulip_to_hpf, mk_tulip, mk_hpf);
parity_case!(tulip_to_tulip, mk_tulip, mk_tulip);
parity_case!(tulip_to_chaos, mk_tulip, mk_chaos);
parity_case!(chaos_to_multiblock, mk_chaos, mk_multiblock);
parity_case!(chaos_to_hpf, mk_chaos, mk_hpf);
parity_case!(chaos_to_tulip, mk_chaos, mk_tulip);
parity_case!(chaos_to_chaos, mk_chaos, mk_chaos);
