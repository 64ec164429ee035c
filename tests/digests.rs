//! Behaviour digests: the determinism gate of the simulator.
//!
//! Every case below runs one world and folds everything it observed into
//! one FNV-1a-64 digest of a canonical rendering: per-rank results,
//! clocks and `elapsed` by `f64::to_bits`, the full per-rank traces,
//! `NetStats`, and `contended_secs`.  The digests are committed in
//! `tests/golden/digests.txt`, one `name digest` line per case, and must
//! not change: any edit to the runtime that moves a single virtual
//! timestamp, reorders a trace event, or changes a counter shows up here.
//!
//! The cases reach every way a parked rank can be resumed: message
//! wakes (the P=64 reliable exchange, fault-free and under a `FaultPlan`,
//! and the torus incast), settle-at-quiescence polls and recv timeouts
//! that fire on silence, a deadline-armed world that wedges, a
//! supervised crash whose survivor evicts a silent peer by lease, the
//! deadlock teardown, and every scenario of the fuzz regression corpus.
//! Two cases hand-forge data parts on a move stream so that every
//! receive-side drop branch is pinned: a transaction dropping a replayed
//! half, and a session restarting collection on an attempt-epoch jump
//! and dropping an older attempt's part mid-half.
//!
//! Floats inside traces and reports are rendered with `{:?}`, which
//! prints the shortest decimal that round-trips to the same bits.  The
//! digest is FNV-1a rather than `DefaultHasher`, whose output is not
//! stable across toolchains.  On a mismatch the test prints the full
//! freshly computed file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use mcsim::fault::{test_seeds, FaultPlan, FaultRates};
use mcsim::model::{MachineModel, Topology};
use mcsim::prelude::Endpoint;
use mcsim::reliable::{flush_send, reliable_recv, reliable_send, StreamTag};
use mcsim::stats::NetStats;
use mcsim::trace::TraceEvent;
use mcsim::wire::{Wire, WireReader};
use mcsim::world::World;
use mcsim::{SimError, Tag};

use hpf::{HpfArray, HpfDist};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::coupling::Coupler;
use meta_chaos::region::RegularSection;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{data_move_recv, data_move_send, RecoverySession, Schedule, Side};
use multiblock::MultiblockArray;

/// Streaming FNV-1a-64 over everything written into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Canonical rendering of one world's observables.
fn digest_run<R: std::fmt::Debug>(
    results: &[R],
    clocks: &[f64],
    elapsed: f64,
    traces: &[Vec<TraceEvent>],
    stats: &NetStats,
    contended_secs: f64,
) -> u64 {
    let mut h = Fnv::new();
    for (rank, r) in results.iter().enumerate() {
        let _ = writeln!(h, "result {rank} {r:?}");
    }
    for (rank, c) in clocks.iter().enumerate() {
        let _ = writeln!(h, "clock {rank} {:016x}", c.to_bits());
    }
    let _ = writeln!(h, "elapsed {:016x}", elapsed.to_bits());
    for (rank, tl) in traces.iter().enumerate() {
        let _ = writeln!(h, "trace {rank} {}", tl.len());
        for e in tl {
            let _ = writeln!(h, "{e:?}");
        }
    }
    let _ = writeln!(h, "stats {stats:?}");
    let _ = writeln!(h, "contended {:016x}", contended_secs.to_bits());
    h.0
}

fn digest_output<R: std::fmt::Debug>(out: &mcsim::RunOutput<R>) -> u64 {
    digest_run(
        &out.results,
        &out.clocks,
        out.elapsed,
        &out.traces,
        &out.stats,
        out.contended_secs,
    )
}

fn digest_report<R: std::fmt::Debug>(rep: &mcsim::RunReport<R>) -> u64 {
    digest_run(
        &rep.outcomes,
        &rep.clocks,
        rep.elapsed,
        &rep.traces,
        &rep.stats,
        rep.contended_secs,
    )
}

/// Tiny keyed xorshift so every (seed, rank, round, hop) gets its own
/// payload without any external RNG.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed ^ (a << 40) ^ (b << 20) ^ c ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x.max(1)
}

/// Three rounds of reliable-stream exchange at hop distances 1 and 17
/// (coprime with 64, so messages cross the whole rank space), payload
/// sizes varied per edge.  Returns a checksum of everything received.
fn exchange_workload(ep: &mut Endpoint, seed: u64) -> u64 {
    let p = ep.world_size();
    let me = ep.rank();
    let mut sum = 0u64;
    for round in 0..3u64 {
        let st = StreamTag::new(0x5CA1, round as u32);
        for &hop in &[1usize, 17 % p.max(1)] {
            let to = (me + hop) % p;
            let n = (mix(seed, me as u64, round, hop as u64) % 96 + 8) as usize;
            let payload: Vec<u8> = (0..n)
                .map(|i| mix(seed, to as u64, round, i as u64) as u8)
                .collect();
            reliable_send(ep, to, st, payload).unwrap();
        }
        for &hop in &[1usize, 17 % p.max(1)] {
            let from = (me + p - hop) % p;
            let got = reliable_recv(ep, from, st).unwrap();
            sum = sum.wrapping_add(
                got.iter()
                    .fold(0u64, |acc, &b| acc.wrapping_mul(31).wrapping_add(b as u64)),
            );
        }
    }
    sum
}

fn exchange_cases(cases: &mut Vec<(String, u64)>) {
    for seed in test_seeds() {
        let clean = World::with_model(64, MachineModel::sp2()).with_trace();
        let out = clean.run(move |ep| exchange_workload(ep, seed));
        cases.push((
            format!("exchange_p64_seed{seed}_clean"),
            digest_output(&out),
        ));

        let faulted = World::with_model(64, MachineModel::sp2())
            .with_faults(FaultPlan::new(seed).rates(FaultRates {
                drop: 0.04,
                dup: 0.03,
                delay: 0.05,
                delay_secs: 2e-4,
                ..FaultRates::default()
            }))
            .with_trace();
        let out = faulted.run(move |ep| exchange_workload(ep, seed));
        cases.push((
            format!("exchange_p64_seed{seed}_faulted"),
            digest_output(&out),
        ));
    }
}

/// Everyone sends 4 KiB to rank 0 over an 8×8 torus.
fn torus_incast() -> u64 {
    let world = World::with_model(64, MachineModel::sp2())
        .with_topology(Topology::Torus2D { cols: 8, rows: 8 })
        .with_trace();
    let out = world.run(|ep| {
        let t = Tag::new(11, 3);
        if ep.rank() == 0 {
            for src in 1..ep.world_size() {
                let _ = ep.recv(src, t);
            }
        } else {
            ep.send(0, t, vec![0xA5; 4096]);
        }
        ep.clock()
    });
    assert!(out.contended_secs > 0.0, "incast must contend");
    digest_output(&out)
}

/// One traced coupled Multiblock {0,1} → HPF {2,3} move, twice, plus the
/// critical-path phase totals of the analyzer.
fn multiblock_to_hpf_traced() -> u64 {
    const N: usize = 64;
    let world = World::with_model(4, MachineModel::sp2()).with_trace();
    let out = world.run(|ep| {
        let (pa, pb, un) = mcsim::group::Group::split_two(2, 2, 32);
        let set: SetOfRegions<RegularSection> = SetOfRegions::single(RegularSection::whole(&[N]));
        let mut coupler = Coupler::new();
        if pa.contains(ep.rank()) {
            let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[N]);
            v.fill_with(|c| (c[0] * 7 + 3) as f64);
            let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pa,
                Some(Side::new(&v, &set)),
                &pb,
                None,
                BuildMethod::Cooperation,
            )
            .expect("schedule");
            coupler.bind("boundary", sched);
            for _ in 0..2 {
                coupler.put(ep, "boundary", &v).expect("put");
            }
            Vec::new()
        } else {
            let mut h = HpfArray::<f64>::new(&pb, ep.rank(), HpfDist::block_1d(N, 2));
            let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pa,
                None,
                &pb,
                Some(Side::new(&h, &set)),
                BuildMethod::Cooperation,
            )
            .expect("schedule");
            coupler.bind("boundary", sched);
            for _ in 0..2 {
                coupler.get(ep, "boundary", &mut h).expect("get");
            }
            (0..N)
                .filter(|&x| h.owns(&[x]))
                .map(|x| h.get(&[x]).to_bits())
                .collect::<Vec<u64>>()
        }
    });
    let report = mcsim::analyze(&out.traces);
    report.self_check().expect("attribution tiles");
    let mut h = Fnv(digest_output(&out));
    for (phase, secs) in report.phase_totals() {
        let _ = writeln!(h, "phase {phase} {:016x}", secs.to_bits());
    }
    h.0
}

/// `recv_timeout` on a late message (left stashed, then taken by a plain
/// receive) and on a peer that never sends (fires on silence).
fn recv_timeout_silence() -> u64 {
    let out = World::with_model(3, MachineModel::sp2())
        .with_trace()
        .run(|ep| {
            let t = Tag::user(9);
            match ep.rank() {
                0 => {
                    let late = ep.recv_timeout(1, t, 1e-3);
                    let bytes = ep.recv(1, t);
                    let silent = ep.recv_timeout(2, Tag::user(10), 1e-6);
                    format!("{late:?} {bytes:?} {silent:?}")
                }
                1 => {
                    ep.charge(5e-3);
                    ep.send(0, t, vec![1, 2, 3]);
                    String::new()
                }
                _ => String::new(),
            }
        });
    digest_output(&out)
}

/// A deadline-armed world that wedges: two ranks wait on each other and
/// a third is already past the deadline when it blocks.
fn deadline_wedge() -> u64 {
    let rep = World::with_model(3, MachineModel::sp2())
        .with_deadline(1e-2)
        .with_trace()
        .run_result(|ep| {
            let t = Tag::user(2);
            match ep.rank() {
                0 => ep.recv_result(1, t).map(|_| ()),
                1 => ep.recv_result(0, t).map(|_| ()),
                _ => {
                    ep.charge(0.5);
                    ep.recv_result(0, t).map(|_| ())
                }
            }
        });
    for o in &rep.outcomes {
        assert!(matches!(o, Ok(Err(SimError::DeadlineExceeded))), "{o:?}");
    }
    digest_report(&rep)
}

/// A supervised world with heartbeats: rank 1 crashes mid ping-pong with
/// rank 2 and is restarted; rank 0 waits on a reliable stream rank 2
/// never writes and evicts it once its lease lapses through repeated
/// silence; rank 2, left waiting on the restarted rank 1, is torn down.
fn supervised_crash_lease() -> u64 {
    let rep = World::with_model(3, MachineModel::sp2())
        .with_supervisor(1)
        .with_faults(FaultPlan::new(5).crash(1, 1e-4))
        .with_trace()
        .run_result(|ep| {
            let t = Tag::user(4);
            match ep.rank() {
                0 => reliable_recv(ep, 2, StreamTag::new(0x1EA5, 0)).map(|v| v.len()),
                1 => {
                    if ep.incarnation() > 0 {
                        return Ok(0);
                    }
                    loop {
                        ep.send(2, t, vec![0u8; 64]);
                        ep.recv_result(2, t)?;
                    }
                }
                _ => loop {
                    let v = ep.recv_result(1, t)?;
                    ep.send(1, t, v);
                },
            }
        });
    assert!(rep.stats.recovery.ranks_recovered >= 1, "rank 1 restarted");
    assert!(
        rep.stats.recovery.leases_expired >= 1,
        "rank 0 evicted rank 2"
    );
    assert!(
        matches!(
            rep.outcomes[0],
            Ok(Err(SimError::PeerEvicted { rank: 2, .. }))
        ),
        "{:?}",
        rep.outcomes[0]
    );
    assert!(
        matches!(rep.outcomes[2], Ok(Err(SimError::Shutdown))),
        "{:?}",
        rep.outcomes[2]
    );
    digest_report(&rep)
}

/// A 1 → 1 Multiblock → HPF coupling over the whole `0..n` index space:
/// rank 0 owns the source, rank 1 the destination, and the single pair's
/// half is the source in index order.  Returns the schedule and this
/// rank's object.
fn one_pair_coupling(
    ep: &mut Endpoint,
    n: usize,
) -> (Schedule, Result<MultiblockArray<f64>, HpfArray<f64>>) {
    let (pa, pb, un) = mcsim::group::Group::split_two(1, 1, 32);
    let set: SetOfRegions<RegularSection> = SetOfRegions::single(RegularSection::whole(&[n]));
    if pa.contains(ep.rank()) {
        let v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[n]);
        let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
            ep,
            &un,
            &pa,
            Some(Side::new(&v, &set)),
            &pb,
            None,
            BuildMethod::Cooperation,
        )
        .expect("schedule");
        (sched, Ok(v))
    } else {
        let h = HpfArray::<f64>::new(&pb, ep.rank(), HpfDist::block_1d(n, 1));
        let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
            ep,
            &un,
            &pa,
            None,
            &pb,
            Some(Side::new(&h, &set)),
            BuildMethod::Cooperation,
        )
        .expect("schedule");
        (sched, Err(h))
    }
}

/// Post one data part on the schedule's move stream by hand:
/// `[transfer epoch][last][count]` and `count` elements `f(x)` starting
/// at index `from`.  Stands in for a half left on the wire by an attempt
/// the executor has abandoned.
fn forge_part(
    ep: &mut Endpoint,
    sched: &Schedule,
    te: u64,
    last: bool,
    from: usize,
    count: usize,
    f: impl Fn(usize) -> f64,
) {
    let st = StreamTag::new(sched.group().context(), sched.seq());
    let mut buf = Vec::new();
    te.write(&mut buf);
    u8::from(last).write(&mut buf);
    count.write(&mut buf);
    for x in from..from + count {
        f(x).write(&mut buf);
    }
    reliable_send(ep, 1, st, buf).unwrap();
    flush_send(ep, 1, st).unwrap();
}

/// A transactional retry that meets a replayed half: after one committed
/// transfer (transfer epoch 1), a two-part copy of that half reappears
/// on the move stream ahead of the next transfer (epoch 2).  The
/// receiver drops the whole replay, counted once, and commits only the
/// fresh data.
fn txn_replayed_half() -> u64 {
    const N: usize = 64;
    let world = World::with_model(2, MachineModel::sp2()).with_trace();
    let out = world.run(|ep| match one_pair_coupling(ep, N) {
        (sched, Ok(mut v)) => {
            v.fill_with(|c| (c[0] * 3 + 1) as f64);
            data_move_send(ep, &sched, &v).unwrap();
            forge_part(ep, &sched, 1, false, 0, 1, |x| (x * 3 + 1) as f64);
            forge_part(ep, &sched, 1, true, 1, N - 1, |x| (x * 3 + 1) as f64);
            v.fill_with(|c| (c[0] * 5 + 2) as f64);
            data_move_send(ep, &sched, &v).unwrap();
            Vec::new()
        }
        (sched, Err(mut h)) => {
            data_move_recv(ep, &sched, &mut h).unwrap();
            data_move_recv(ep, &sched, &mut h).unwrap();
            (0..N).map(|x| h.get(&[x]).to_bits()).collect::<Vec<u64>>()
        }
    });
    for (x, &b) in out.results[1].iter().enumerate() {
        assert_eq!(f64::from_bits(b), (x * 5 + 2) as f64, "h[{x}]");
    }
    assert_eq!(out.stats.session.stale_halves_dropped, 1);
    digest_output(&out)
}

/// A recovery session whose step 1 arrives interleaved with abandoned
/// attempts: a partial half of attempt 1, then attempt 3's first part
/// (collection restarts), then a part of attempt 2 in the middle of
/// attempt 3's half (dropped as stale), then the rest of attempt 3.
/// Steps 0 and 2 run through the session's own sender.
fn session_abandoned_attempts() -> u64 {
    const N: usize = 64;
    let value = |k: u64, x: usize| ((k + 1) * 1000 + 3 * x as u64 + 1) as f64;
    let world = World::with_model(2, MachineModel::sp2()).with_trace();
    let out = world.run(move |ep| {
        let mut ses = RecoverySession::new("pin");
        match one_pair_coupling(ep, N) {
            (sched, Ok(mut v)) => {
                v.fill_with(|c| value(0, c[0]));
                ses.send_step(ep, &sched, &v, 0).unwrap();
                let step1 = |a: u64| (2 << 32) | a;
                forge_part(ep, &sched, step1(1), false, 0, 1, |x| value(1, x));
                forge_part(ep, &sched, step1(3), false, 0, 1, |x| value(1, x));
                forge_part(ep, &sched, step1(2), true, 1, N - 1, |x| value(1, x));
                forge_part(ep, &sched, step1(3), true, 1, N - 1, |x| value(1, x));
                let st = StreamTag::new(sched.group().context(), sched.seq());
                let pos = reliable_recv(ep, 1, st).unwrap();
                let mut r = WireReader::new(&pos);
                let pos = vec![u64::read(&mut r).unwrap(), u64::read(&mut r).unwrap()];
                assert_eq!(pos, [1, 2], "step 1 answered with POS 2");
                v.fill_with(|c| value(2, c[0]));
                ses.send_step(ep, &sched, &v, 2).unwrap();
                ses.finish(ep, &sched, 3).unwrap();
                pos
            }
            (sched, Err(mut h)) => {
                for k in 0..3 {
                    ses.recv_step(ep, &sched, &mut h, k).unwrap();
                    assert_eq!(h.get(&[N - 1]), value(k, N - 1), "step {k}");
                }
                ses.finish(ep, &sched, 3).unwrap();
                (0..N).map(|x| h.get(&[x]).to_bits()).collect()
            }
        }
    });
    assert_eq!(out.stats.session.stale_halves_dropped, 1);
    assert_eq!(out.stats.session.transfers_committed, 3);
    digest_output(&out)
}

/// Every corpus scenario, through the same runs the fuzz oracle makes.
fn corpus_cases(cases: &mut Vec<(String, u64)>) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    for path in files {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let sc = fuzz::parse_repro(&text).expect("parseable corpus file");
        let mut runs = Vec::new();
        if sc.recover {
            let baseline = fuzz::exec::run_recovery(&sc, &[]);
            let fracs = sc.fault.as_ref().map(|f| &f.crashes[..]).unwrap_or(&[]);
            let times: Vec<(usize, f64)> = fracs
                .iter()
                .filter_map(|&(rank, frac)| {
                    let (lo, hi) = baseline.windows.get(rank).copied().flatten()?;
                    Some((rank, lo + frac * (hi - lo)))
                })
                .collect();
            runs.push(baseline);
            runs.push(fuzz::exec::run_recovery(&sc, &times));
        } else {
            runs.push(fuzz::exec::run_scenario(&sc, false, false));
            runs.push(fuzz::exec::run_scenario(&sc, true, false));
            if sc.fault.is_some() {
                runs.push(fuzz::exec::run_scenario(&sc, false, true));
            }
        }
        let mut h = Fnv::new();
        for run in &runs {
            let _ = writeln!(h, "{run:?}");
        }
        cases.push((format!("corpus_{name}"), h.0));
    }
}

fn compute() -> Vec<(String, u64)> {
    let mut cases = Vec::new();
    exchange_cases(&mut cases);
    cases.push(("torus_incast_8x8".into(), torus_incast()));
    cases.push((
        "multiblock_to_hpf_traced".into(),
        multiblock_to_hpf_traced(),
    ));
    cases.push(("recv_timeout_silence".into(), recv_timeout_silence()));
    cases.push(("deadline_wedge".into(), deadline_wedge()));
    cases.push(("supervised_crash_lease".into(), supervised_crash_lease()));
    cases.push(("txn_replayed_half".into(), txn_replayed_half()));
    cases.push((
        "session_abandoned_attempts".into(),
        session_abandoned_attempts(),
    ));
    corpus_cases(&mut cases);
    cases
}

#[test]
fn behaviour_digests_match_golden() {
    let cases = compute();
    let fresh: String = cases
        .iter()
        .map(|(name, d)| format!("{name} {d:016x}\n"))
        .collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/digests.txt");
    let golden_text = std::fs::read_to_string(&path).unwrap_or_default();
    let golden: BTreeMap<&str, &str> = golden_text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .collect();
    let mut bad = Vec::new();
    for (name, d) in &cases {
        match golden.get(name.as_str()) {
            Some(g) if *g == format!("{d:016x}") => {}
            Some(g) => bad.push(format!("{name}: golden {g}, got {d:016x}")),
            None => bad.push(format!("{name}: not in the golden file")),
        }
    }
    // A seed override runs a subset of the exchange cases; the full set
    // must match the file line for line.
    if std::env::var_os("MC_FAULT_SEED").is_none() && golden.len() != cases.len() {
        bad.push(format!(
            "golden file has {} cases, computed {}",
            golden.len(),
            cases.len()
        ));
    }
    assert!(
        bad.is_empty(),
        "behaviour digests changed:\n{}\n\nfreshly computed file:\n{fresh}",
        bad.join("\n")
    );
}
