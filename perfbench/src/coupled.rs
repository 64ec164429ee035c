//! The coupled workloads: a Multiblock vector on program A coupled to a
//! block-distributed HPF vector on program B through a `Coupler` port.
//!
//! `scale_p1024` runs it with 512 + 512 ranks and a small vector, then an
//! HPF redistribution over the whole world; `bulk_8mb` and
//! `bulk_8mb_lossy` run it with 2 + 2 ranks and an 8 MB vector, the lossy
//! one under a seeded fault plan.  The seed picks the input values and
//! where the moved section starts inside the source vector, so the pair
//! split (and with it every virtual time) depends on the seed.

use std::time::Instant;

use mcsim::fault::{FaultPlan, FaultRates};
use mcsim::group::Group;
use mcsim::model::MachineModel;
use mcsim::prelude::Endpoint;
use mcsim::reliable::{flush_send, reliable_recv, reliable_send, StreamTag};
use mcsim::wire::WireReader;
use mcsim::world::{Runner, World};

use hpf::{DistKind, HpfArray, HpfDist};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::coupling::Coupler;
use meta_chaos::region::RegularSection;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{McObject, Side};
use multiblock::MultiblockArray;

use crate::harness::speed::Probe;
use crate::harness::{digest_traces, mix, Cx, RankOut, Values, TIMED_SPAN};
use crate::{Mode, WorldOut};

/// Generation number of the redistributed vector's values (moves use
/// 1, 2, …).
const GEN_REDIST: u64 = u64::MAX;
/// Context of the reliable-transport probe stream; above every group
/// context the workloads use.
const PROBE_CTX: u32 = 0x0700;

/// One coupled workload's shape.
#[derive(Debug, Clone)]
pub struct Coupled {
    pub procs_a: usize,
    pub procs_b: usize,
    /// Elements moved per put/get.
    pub n: usize,
    /// The source vector holds `n + slack` elements; the moved section
    /// starts at `shift < slack` (see [`shift`]).
    pub slack: usize,
    pub shift: usize,
    /// Barrier-bracketed put/get moves per world.
    pub moves: usize,
    /// Length of the block→CYCLIC(4) redistribution over the whole world.
    pub redistribute: Option<usize>,
    pub faults: Option<FaultPlan>,
    pub seed: u64,
    /// The host speed kernel whose drift follows the timed section's.
    pub probe: Probe,
}

impl Coupled {
    pub fn scale_p1024(seed: u64) -> Self {
        Coupled {
            procs_a: 512,
            procs_b: 512,
            n: 32768,
            slack: 1024,
            shift: shift(seed, 1024),
            moves: 8,
            redistribute: Some(32768 + (mix(seed ^ 1) % 1024) as usize),
            faults: None,
            seed,
            probe: Probe::Alloc,
        }
    }

    pub fn bulk_8mb(seed: u64, lossy: bool) -> Self {
        let faults = lossy.then(|| {
            FaultPlan::new(mix(seed ^ 2)).rates(FaultRates {
                drop: 0.01,
                dup: 0.01,
                corrupt: 0.01,
                ..FaultRates::default()
            })
        });
        Coupled {
            procs_a: 2,
            procs_b: 2,
            n: 1 << 20,
            slack: 4096,
            shift: shift(seed, 4096),
            moves: 500,
            redistribute: None,
            faults,
            seed,
            // The moves are 8 MB copies, with or without faults.
            probe: Probe::Copy,
        }
    }

    fn procs(&self) -> usize {
        self.procs_a + self.procs_b
    }

    /// Bytes of one A rank's share of a move: the reliable probe's payload.
    fn half_bytes(&self) -> usize {
        self.n.div_ceil(self.procs_a) * 8
    }
}

/// Where the moved section starts in a source vector `slack` longer than
/// the destination.  Always in the upper half of the slack, so the last A
/// rank sends a small piece to the first B rank whatever the seed: the
/// seed moves the split but never the set of communicating pairs, which
/// would change virtual time by 15%.
fn shift(seed: u64, slack: usize) -> usize {
    slack / 2 + (mix(seed) % (slack as u64 / 2)) as usize
}

/// Run one world of the workload.
pub fn run_world(c: &Coupled, mode: Mode, origin: Instant) -> WorldOut {
    let setup_from = Instant::now();
    let mut world = World::with_model(c.procs(), MachineModel::sp2());
    if let Some(plan) = &c.faults {
        world = world.with_faults(plan.clone());
    }
    if mode.trace_world {
        world = world.with_trace();
    }
    assert_eq!(world.runner(), Runner::Coop { workers: 1 });
    let run_entry = Instant::now();
    let out = world.run(|ep| rank_body(ep, c, mode, origin, setup_from, run_entry));
    let mut w = WorldOut::merge(out.results);
    if mode.trace_world {
        w.trace = Some(digest_traces(&out.traces, &w.rank0.spans));
    }
    w.goodput_bytes = (c.moves * c.n * 8) as u64;
    w
}

fn rank_body(
    ep: &mut Endpoint,
    c: &Coupled,
    mode: Mode,
    origin: Instant,
    setup_from: Instant,
    run_entry: Instant,
) -> RankOut {
    let mut cx = Cx::new(ep, origin, setup_from, run_entry);
    let me = ep.rank();
    let (pa, pb, un) = Group::split_two(c.procs_a, c.procs_b, 32);
    let (n, shift, seed) = (c.n, c.shift, c.seed);
    let input = Values::new(seed, 0);
    let src_set = SetOfRegions::single(RegularSection::of_bounds(&[(shift, shift + n)]));
    let dst_set = SetOfRegions::single(RegularSection::whole(&[n]));

    // Inputs.  Move m stores `base + m`, so a skipped or replayed move
    // leaves a value that no other move writes.
    let (mut src, mut dst, base) = if pa.contains(me) {
        let v = MultiblockArray::<f64>::new(&pa, me, &[n + c.slack]);
        let (lo, hi) = v.my_box()[0];
        assert_eq!(
            v.local().len(),
            hi - lo,
            "1-D Multiblock storage is the owned block"
        );
        let base: Vec<f64> = (lo..hi).map(|g| input.at(g)).collect();
        (Some(v), None, base)
    } else {
        let mut h = HpfArray::<f64>::new(&pb, me, HpfDist::block_1d(n, c.procs_b));
        h.for_each_owned(|co, v| *v = co[0] as f64);
        let base: Vec<f64> = h
            .local()
            .iter()
            .map(|&g| input.at(g as usize + shift))
            .collect();
        (None, Some(h), base)
    };
    let red_values = Values::new(seed, GEN_REDIST);
    let red_src = c.redistribute.map(|nr| {
        let g = Group::world(c.procs());
        let mut h = HpfArray::<f64>::new(&g, me, HpfDist::block_1d(nr, c.procs()));
        h.for_each_owned(|co, v| *v = red_values.at(co[0]));
        h
    });

    cx.begin(ep, TIMED_SPAN);
    let (sched, id) = cx.op(ep, "meta_chaos.build", |ep| {
        compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
            ep,
            &un,
            &pa,
            src.as_ref().map(|v| Side::new(v, &src_set)),
            &pb,
            dst.as_ref().map(|h| Side::new(h, &dst_set)),
            BuildMethod::Cooperation,
        )
    });
    let sched = sched.unwrap_or_else(|e| panic!("rank {me}: schedule build failed: {e}"));
    cx.check(id, sched.total_elems == n, || {
        format!("schedule covers {} elements, not {n}", sched.total_elems)
    });
    let mut coupler = Coupler::new();
    coupler.bind("boundary", sched.clone());

    for m in 1..=c.moves as u64 {
        if let Some(v) = src.as_mut() {
            for (x, b) in v.local_mut().iter_mut().zip(&base) {
                *x = b + m as f64;
            }
        }
        let (r, id) = cx.move_op(ep, "meta_chaos.move", |ep| match (&src, &mut dst) {
            (Some(v), _) => coupler.put::<f64, _>(ep, "boundary", v),
            (None, Some(h)) => coupler.get::<f64, _>(ep, "boundary", h),
            (None, None) => unreachable!("every rank is in A or B"),
        });
        cx.check(id, r.is_ok(), || format!("move {m} returned {r:?}"));
        if let Some(h) = &dst {
            let bad = h
                .local()
                .iter()
                .zip(&base)
                .filter(|(x, b)| x.to_bits() != (**b + m as f64).to_bits())
                .count();
            cx.check(id, bad == 0, || {
                format!("move {m}: {bad} destination elements differ from the serial model")
            });
        }
    }

    if let Some(h) = red_src {
        let g = Group::world(c.procs());
        let nr = h.dist().shape()[0];
        let (mut out, id) = cx.op(ep, "hpf.redistribute", |ep| {
            hpf::redistribute(
                ep,
                &g,
                &h,
                HpfDist::new(vec![nr], vec![DistKind::Cyclic(4)], vec![c.procs()]),
            )
        });
        let mut bad = 0usize;
        out.for_each_owned(|co, v| {
            if v.to_bits() != red_values.at(co[0]).to_bits() {
                bad += 1;
            }
        });
        cx.check(id, bad == 0, || {
            format!("redistribute: {bad} elements differ from the source")
        });
    }
    cx.end(ep);

    if mode.probes {
        probes(
            ep,
            &mut cx,
            c,
            &un,
            &pa,
            &pb,
            &sched,
            src.as_ref(),
            dst.as_mut(),
        );
    }
    cx.finish()
}

#[allow(clippy::too_many_arguments)]
fn probes(
    ep: &mut Endpoint,
    cx: &mut Cx,
    c: &Coupled,
    un: &Group,
    pa: &Group,
    pb: &Group,
    sched: &meta_chaos::Schedule,
    src: Option<&MultiblockArray<f64>>,
    dst: Option<&mut HpfArray<f64>>,
) {
    cx.begin(ep, "probe.all");
    cx.barrier_probe(ep, if c.procs() >= 256 { 10 } else { 200 });
    cx.alltoallv_probe(ep, un);

    // A bare reliable stream of one A rank's share of the bytes, under
    // the workload's own fault plan.
    let (from, to) = (pa.global(0), pb.global(0));
    let st = StreamTag::new(PROBE_CTX, 1);
    let len = c.half_bytes();
    let pattern = |i: usize| (mix(c.seed ^ i as u64) & 0xff) as u8;
    let me = ep.rank();
    let (got, id) = cx.op(ep, "probe.reliable", |ep| {
        if me == from {
            let payload: Vec<u8> = (0..len).map(pattern).collect();
            reliable_send(ep, to, st, payload).and_then(|_| flush_send(ep, to, st))?;
            Ok(None)
        } else if me == to {
            reliable_recv(ep, from, st).map(Some)
        } else {
            Ok(None)
        }
    });
    match got {
        Ok(Some(bytes)) => {
            let ok = bytes.len() == len && bytes.iter().enumerate().all(|(i, &b)| b == pattern(i));
            cx.check(id, ok, || "reliable probe payload differs".into());
        }
        Ok(None) => {}
        Err(e) => cx.check(id, false, || format!("reliable probe: {e}")),
    }
    if cx.is_rank0() {
        let h = cx.out.host["probe.reliable"];
        cx.probe("mcsim.reliable.send_recv_ms", h * 1e3);
    }

    // Pack on the first A rank, unpack on the first B rank: one rank's
    // half of the move schedule, timed around the adapter calls alone.
    const REPS: usize = 5;
    let id = cx.next_op();
    if let Some(v) = src.filter(|_| me == from) {
        let mut buf = Vec::new();
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                for (_, runs) in &sched.sends {
                    buf.clear();
                    v.pack_runs_wire(ep, runs, &mut buf);
                }
                t.elapsed().as_secs_f64()
            })
            .collect();
        let t = crate::median(&times);
        cx.probe("meta_chaos.datamove.pack_ms", t * 1e3);
    }
    if let Some(h) = dst.filter(|_| me == to) {
        let payloads: Vec<Vec<u8>> = sched
            .recvs
            .iter()
            .map(|(_, runs)| {
                let mut b = Vec::new();
                h.pack_runs_wire(ep, runs, &mut b);
                b
            })
            .collect();
        let mut failed = None;
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                for ((_, runs), b) in sched.recvs.iter().zip(&payloads) {
                    if let Err(e) = h.unpack_runs_wire(ep, runs, &mut WireReader::new(b)) {
                        failed = Some(e);
                    }
                }
                t.elapsed().as_secs_f64()
            })
            .collect();
        let t = crate::median(&times);
        cx.check(id, failed.is_none(), || format!("unpack probe: {failed:?}"));
        cx.probe("meta_chaos.datamove.unpack_ms", t * 1e3);
    }
    cx.end(ep);
}
