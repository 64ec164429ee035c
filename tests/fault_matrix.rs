//! Fault-injection matrix for the reliable coupling path: every fault kind
//! (drop, duplicate, corrupt, delay), under both schedule builders and
//! several seeds, must leave a coupled transfer byte-identical to the
//! fault-free baseline with bounded, deterministic retries — and a
//! permanent partition must degrade into [`McError::PeerTimeout`] on both
//! sides instead of a hang.

use mcsim::stats::FaultStats;
use mcsim::{FaultPlan, FaultRates, MachineModel, World};
use meta_chaos::build::{compute_schedule, BuildMethod};
use meta_chaos::coupling::Coupler;
use meta_chaos::datamove::{data_move_recv, data_move_send};
use meta_chaos::region::RegularSection;
use meta_chaos::setof::SetOfRegions;
use meta_chaos::{McError, Side};

use hpf::{HpfArray, HpfDist};
use multiblock::MultiblockArray;

const N: usize = 4096;
const REPS: usize = 3;
/// The acceptance-mix rates are low (10%/5%/2%), so that test repeats the
/// transfer more times to make "at least one drop" a statistical certainty
/// (~48 faultable copies at 10% each).
const REPS_MIX: usize = 12;

/// Seeds for the fault-injection sweeps — the workspace-wide helper, so
/// this suite, `tests/robustness.rs`, and the fuzz driver all honor the
/// same `MC_FAULT_SEED` override (which narrows the run to one seed so
/// `scripts/verify.sh` can loop seeds from outside).
use mcsim::test_seeds as seeds;

/// The sender-side slice of the fault counters: what the injector did and
/// how the senders reacted.  Full `NetStats`, receiver side included, are
/// pinned by `tests/digests.rs`.
fn deterministic_counters(f: &FaultStats) -> (u64, u64, u64, u64, u64, u64) {
    (
        f.drops_injected,
        f.dups_injected,
        f.corrupts_injected,
        f.delays_injected,
        f.retransmits,
        f.timeouts,
    )
}

/// Two programs of 2 ranks each, coupled over the whole index space:
/// senders {0,1} hold a Multiblock vector, receivers {2,3} an HPF vector,
/// both block-distributed, so rank 0 feeds rank 2 and rank 1 feeds rank 3.
/// Runs `REPS` transfers and returns each receiver's `(index, value)`
/// pairs plus the aggregate fault counters.
fn coupled_transfer(
    plan: Option<FaultPlan>,
    method: BuildMethod,
) -> (Vec<Vec<(usize, f64)>>, FaultStats) {
    let mut world = World::with_model(4, MachineModel::sp2());
    if let Some(p) = plan {
        world = world.with_faults(p);
    }
    let out = world.run(move |ep| {
        let (pa, pb, un) = mcsim::group::Group::split_two(2, 2, 32);
        let set: SetOfRegions<RegularSection> = SetOfRegions::single(RegularSection::whole(&[N]));
        if pa.contains(ep.rank()) {
            let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[N]);
            v.fill_with(|c| (c[0] * 3 + 1) as f64);
            let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                ep,
                &un,
                &pa,
                Some(Side::new(&v, &set)),
                &pb,
                None,
                method,
            )
            .unwrap();
            for _ in 0..REPS {
                data_move_send(ep, &sched, &v).unwrap();
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
                method,
            )
            .unwrap();
            for _ in 0..REPS {
                data_move_recv(ep, &sched, &mut h).unwrap();
            }
            (0..N)
                .filter(|&x| h.owns(&[x]))
                .map(|x| (x, h.get(&[x])))
                .collect::<Vec<_>>()
        }
    });
    (out.results, out.stats.faults)
}

fn assert_byte_identical(got: &[Vec<(usize, f64)>], baseline: &[Vec<(usize, f64)>], label: &str) {
    for (rank, (g, b)) in got.iter().zip(baseline).enumerate() {
        assert_eq!(g.len(), b.len(), "{label}: rank {rank} element count");
        for ((xi, vi), (xj, vj)) in g.iter().zip(b) {
            assert_eq!(xi, xj, "{label}: rank {rank} index set");
            assert_eq!(
                vi.to_bits(),
                vj.to_bits(),
                "{label}: rank {rank} value at {xi}"
            );
        }
    }
}

/// {drop, dup, corrupt, delay} × {cooperation, duplication} × seeds: the
/// destination is byte-identical to the fault-free baseline and the
/// counters show the injector and the recovery machinery actually ran.
#[test]
fn fault_matrix_every_kind_is_survived() {
    let kinds: [(&str, FaultRates); 4] = [
        (
            "drop",
            FaultRates {
                drop: 0.30,
                ..FaultRates::default()
            },
        ),
        (
            "dup",
            FaultRates {
                dup: 0.35,
                ..FaultRates::default()
            },
        ),
        (
            "corrupt",
            FaultRates {
                corrupt: 0.30,
                ..FaultRates::default()
            },
        ),
        (
            "delay",
            FaultRates {
                delay: 0.35,
                delay_secs: 0.05,
                ..FaultRates::default()
            },
        ),
    ];
    for method in [BuildMethod::Cooperation, BuildMethod::Duplication] {
        let (baseline, clean) = coupled_transfer(None, method);
        assert_eq!(
            deterministic_counters(&clean),
            (0, 0, 0, 0, 0, 0),
            "fault-free run must not count faults"
        );
        for (name, rates) in kinds {
            for seed in seeds() {
                let label = format!("{name}/{method:?}/seed {seed}");
                let plan = FaultPlan::new(seed).rates(rates);
                let (got, faults) = coupled_transfer(Some(plan), method);
                assert_byte_identical(&got, &baseline, &label);
                match name {
                    "drop" => {
                        assert!(faults.drops_injected > 0, "{label}: no drops injected");
                        assert!(faults.retransmits > 0, "{label}: drops need retransmits");
                    }
                    "dup" => {
                        assert!(faults.dups_injected > 0, "{label}: no dups injected");
                    }
                    "corrupt" => {
                        assert!(faults.corrupts_injected > 0, "{label}: no corruption");
                        assert!(
                            faults.retransmits > 0,
                            "{label}: corruption needs retransmits"
                        );
                    }
                    "delay" => {
                        assert!(faults.delays_injected > 0, "{label}: no delays injected");
                        assert!(
                            faults.timeouts > 0,
                            "{label}: late acks must count timeouts"
                        );
                    }
                    _ => unreachable!(),
                }
            }
        }
    }
}

/// Every injected fault kind is visible on the event timeline: a traced
/// faulted run records [`TraceEvent::Fault`] with the matching
/// [`FaultKind`], and recovery shows up as retransmit events on the wire
/// (drop/corrupt) without perturbing the delivered bytes.
#[test]
fn fault_kinds_appear_as_trace_events() {
    use mcsim::trace::{FaultKind, TraceEvent};

    let kinds: [(FaultKind, FaultRates); 4] = [
        (
            FaultKind::Drop,
            FaultRates {
                drop: 0.30,
                ..FaultRates::default()
            },
        ),
        (
            FaultKind::Duplicate,
            FaultRates {
                dup: 0.35,
                ..FaultRates::default()
            },
        ),
        (
            FaultKind::Corrupt,
            FaultRates {
                corrupt: 0.30,
                ..FaultRates::default()
            },
        ),
        (
            FaultKind::Delay,
            FaultRates {
                delay: 0.35,
                delay_secs: 0.05,
                ..FaultRates::default()
            },
        ),
    ];
    for (kind, rates) in kinds {
        let plan = FaultPlan::new(seeds()[0]).rates(rates);
        let world = World::with_model(4, MachineModel::sp2())
            .with_faults(plan)
            .with_trace();
        let out = world.run(move |ep| {
            let (pa, pb, un) = mcsim::group::Group::split_two(2, 2, 32);
            let set: SetOfRegions<RegularSection> =
                SetOfRegions::single(RegularSection::whole(&[N]));
            if pa.contains(ep.rank()) {
                let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[N]);
                v.fill_with(|c| (c[0] * 3 + 1) as f64);
                let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                    ep,
                    &un,
                    &pa,
                    Some(Side::new(&v, &set)),
                    &pb,
                    None,
                    BuildMethod::Cooperation,
                )
                .unwrap();
                for _ in 0..REPS {
                    data_move_send(ep, &sched, &v).unwrap();
                }
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
                .unwrap();
                for _ in 0..REPS {
                    data_move_recv(ep, &sched, &mut h).unwrap();
                }
            }
        });
        assert_eq!(out.traces.len(), 4, "{kind:?}: tracing was enabled");
        let injected = out
            .traces
            .iter()
            .flatten()
            .filter(|e| matches!(e, TraceEvent::Fault { kind: k, .. } if *k == kind))
            .count() as u64;
        assert!(injected > 0, "{kind:?}: no fault events on any timeline");
        let counted = match kind {
            FaultKind::Drop => out.stats.faults.drops_injected,
            FaultKind::Duplicate => out.stats.faults.dups_injected,
            FaultKind::Corrupt => out.stats.faults.corrupts_injected,
            FaultKind::Delay => out.stats.faults.delays_injected,
        };
        assert_eq!(
            injected, counted,
            "{kind:?}: every counted injection must appear as a trace event"
        );
        if matches!(kind, FaultKind::Drop | FaultKind::Corrupt) {
            let resent = out
                .traces
                .iter()
                .flatten()
                .filter(|e| matches!(e, TraceEvent::Retransmit { .. }))
                .count() as u64;
            assert_eq!(
                resent, out.stats.faults.retransmits,
                "{kind:?}: recovery retransmits must appear as trace events"
            );
            assert!(resent > 0, "{kind:?}: loss must force retransmission");
        }
    }
}

/// The acceptance mix from the issue — 10% drop + 5% corrupt + 2% dup —
/// through the named-port coupler: byte-identical result, retransmits
/// happened, and the deterministic counters repeat exactly per seed.
#[test]
fn acceptance_mix_through_coupler_is_deterministic() {
    let rates = FaultRates {
        drop: 0.10,
        corrupt: 0.05,
        dup: 0.02,
        ..FaultRates::default()
    };
    let run = |plan: Option<FaultPlan>| {
        let mut world = World::with_model(4, MachineModel::sp2());
        if let Some(p) = plan {
            world = world.with_faults(p);
        }
        let out = world.run(move |ep| {
            let (pa, pb, un) = mcsim::group::Group::split_two(2, 2, 32);
            let set: SetOfRegions<RegularSection> =
                SetOfRegions::single(RegularSection::whole(&[N]));
            if pa.contains(ep.rank()) {
                let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[N]);
                v.fill_with(|c| (c[0] * 7 + 2) as f64);
                let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                    ep,
                    &un,
                    &pa,
                    Some(Side::new(&v, &set)),
                    &pb,
                    None,
                    BuildMethod::Cooperation,
                )
                .unwrap();
                let mut ports = Coupler::new();
                ports.bind("field", sched);
                for _ in 0..REPS_MIX {
                    ports.put(ep, "field", &v).unwrap();
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
                .unwrap();
                let mut ports = Coupler::new();
                ports.bind("field", sched);
                for _ in 0..REPS_MIX {
                    ports.get(ep, "field", &mut h).unwrap();
                }
                (0..N)
                    .filter(|&x| h.owns(&[x]))
                    .map(|x| (x, h.get(&[x])))
                    .collect::<Vec<_>>()
            }
        });
        (out.results, out.stats.faults)
    };

    let (baseline, _) = run(None);
    for seed in seeds() {
        let (r1, f1) = run(Some(FaultPlan::new(seed).rates(rates)));
        let (r2, f2) = run(Some(FaultPlan::new(seed).rates(rates)));
        let label = format!("acceptance mix seed {seed}");
        assert_byte_identical(&r1, &baseline, &label);
        assert_byte_identical(&r2, &r1, &format!("{label} (rerun)"));
        assert_eq!(
            deterministic_counters(&f1),
            deterministic_counters(&f2),
            "{label}: counters must repeat exactly"
        );
        assert!(f1.drops_injected > 0, "{label}: mix must drop something");
        assert!(f1.retransmits > 0, "{label}: recovery must retransmit");
    }
}

/// A permanent partition (100% loss on the faulted classes) exhausts the
/// retry budget: the sender gets [`McError::PeerTimeout`], the receiver is
/// told via GIVEUP and gets [`McError::PeerTimeout`] too — nobody hangs.
/// Every aborting rank also leaves a non-empty flight-recorder dump
/// behind, naming the failing pair in its final `abort` mark.
#[test]
fn permanent_partition_times_out_both_sides() {
    let plan = FaultPlan::new(3).rates(FaultRates {
        drop: 1.0,
        ..FaultRates::default()
    });
    let out = World::with_model(4, MachineModel::sp2())
        .with_faults(plan)
        .run(move |ep| {
            let (pa, pb, un) = mcsim::group::Group::split_two(2, 2, 32);
            let set: SetOfRegions<RegularSection> =
                SetOfRegions::single(RegularSection::whole(&[N]));
            if pa.contains(ep.rank()) {
                let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[N]);
                v.fill_with(|c| c[0] as f64);
                let sched = compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                    ep,
                    &un,
                    &pa,
                    Some(Side::new(&v, &set)),
                    &pb,
                    None,
                    BuildMethod::Cooperation,
                )
                .unwrap();
                let r = data_move_send(ep, &sched, &v);
                (r, meta_chaos::obs::take_last_abort(ep))
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
                .unwrap();
                let r = data_move_recv(ep, &sched, &mut h);
                (r, meta_chaos::obs::take_last_abort(ep))
            }
        });
    // Schedule construction runs on unfaulted library traffic, so every
    // rank reaches the transfer and then times out against its peer.
    for (rank, (r, dump)) in out.results.iter().enumerate() {
        let expect = (rank + 2) % 4;
        match r {
            Err(McError::PeerTimeout { rank: peer }) => {
                assert_eq!(*peer, expect, "rank {rank} should time out on its pair");
            }
            other => panic!("rank {rank}: expected PeerTimeout, got {other:?}"),
        }
        // Every abort snapshots the flight recorder — even with tracing
        // off, the bounded ring is always on.
        let report = dump
            .as_ref()
            .unwrap_or_else(|| panic!("rank {rank}: abort left no flight-recorder dump"));
        assert_eq!(report.rank, rank);
        assert!(
            !report.events.is_empty(),
            "rank {rank}: flight dump must not be empty"
        );
        let rendered = report.render();
        assert!(
            rendered.contains(&format!("peer rank {expect}"))
                || rendered.contains(&format!("peer={expect}"))
                || report.error.contains(&expect.to_string()),
            "rank {rank}: dump should name the failing pair:\n{rendered}"
        );
        // The dump ends on the abort itself.
        assert!(
            matches!(
                report.events.last(),
                Some(mcsim::trace::TraceEvent::Mark { label, .. }) if label.starts_with("abort error=")
            ),
            "rank {rank}: last flight event must be the abort mark"
        );
    }
    assert!(
        out.stats.faults.retransmits > 0,
        "the sender must have tried before giving up"
    );
}

/// Unbound coupler ports are reported as values on every method — no
/// panic, and no communication that could strand the peer.
#[test]
fn unbound_ports_are_reported_not_panicked() {
    let out = meta_chaos_repro::test_world(2).run(|ep| {
        let ports = Coupler::new();
        let mut v = MultiblockArray::<f64>::new(&mcsim::group::Group::world(2), ep.rank(), &[8]);
        let a = ports.put(ep, "nope", &v).unwrap_err();
        let b = ports.get(ep, "nope", &mut v).unwrap_err();
        let c = ports.put_reverse(ep, "nope", &v).unwrap_err();
        let d = ports.get_reverse(ep, "nope", &mut v).unwrap_err();
        (a, b, c, d)
    });
    for (a, b, c, d) in out.results {
        for e in [a, b, c, d] {
            assert_eq!(
                e,
                McError::UnboundPort {
                    port: "nope".into()
                }
            );
        }
    }
}

/// Epoch guards, direct path: a schedule built before a redistribution is
/// refused with [`McError::StaleSchedule`] before any element moves, and
/// the epoch-keyed `mc_*` cache rebuilds (miss) after every remap while
/// repeat calls with unchanged epochs still hit.
#[test]
fn stale_schedules_rejected_direct_and_rebuilt_cached() {
    use chaos::{remap, IrregArray, Partition};
    use mcsim::group::{Comm, Group};
    use meta_chaos::api::{mc_compute_sched, mc_copy, mc_sched_cache_len};
    use meta_chaos::region::IndexSet;

    let n = 96usize;
    let out = World::with_model(2, MachineModel::sp2()).run(move |ep| {
        let g = Group::world(2);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        a.fill_with(|c| (c[0] * 3 + 1) as f64);
        let mut x = {
            let mut comm = Comm::new(ep, g.clone());
            IrregArray::create(&mut comm, n, Partition::Random(5), |_| 0.0)
        };
        let sset = SetOfRegions::single(RegularSection::whole(&[n]));
        let dset = SetOfRegions::single(IndexSet::new((0..n).collect()));

        let sched = mc_compute_sched(ep, &g, &a, &sset, &x, &dset).unwrap();
        mc_copy(ep, &sched, &a, &mut x).unwrap();
        assert_eq!(mc_sched_cache_len(ep), 1);

        let mut cache_len = 1;
        for round in 0..3u64 {
            // Redistribute the destination: its epoch advances...
            x = {
                let mut comm = Comm::new(ep, g.clone());
                let mine = Partition::Random(40 + round).indices_of(n, 2, comm.rank());
                remap(&mut comm, &x, mine)
            };
            assert_eq!(x.epoch(), round + 1);
            // ...so the pre-remap schedule is refused, untouched data intact.
            match mc_copy(ep, &sched, &a, &mut x) {
                Err(McError::StaleSchedule {
                    object_epoch,
                    schedule_epoch: 0,
                }) => assert_eq!(object_epoch, round + 1),
                other => panic!("round {round}: expected StaleSchedule, got {other:?}"),
            }
            // The cached path rebuilds instead: every remap is a miss...
            let fresh = mc_compute_sched(ep, &g, &a, &sset, &x, &dset).unwrap();
            cache_len += 1;
            assert_eq!(fresh.dst_epoch(), x.epoch());
            assert_eq!(
                mc_sched_cache_len(ep),
                cache_len,
                "round {round}: remap must force a cache rebuild"
            );
            // ...and a repeat call with unchanged epochs is a hit.
            let again = mc_compute_sched(ep, &g, &a, &sset, &x, &dset).unwrap();
            assert_eq!(again.seq(), fresh.seq());
            assert_eq!(
                mc_sched_cache_len(ep),
                cache_len,
                "round {round}: unchanged epochs must hit the cache"
            );
            mc_copy(ep, &fresh, &a, &mut x).unwrap();
        }
        // The last rebuilt schedule moved real data.
        for (&gidx, &v) in x.my_globals().iter().zip(x.local()) {
            assert_eq!(v, (gidx * 3 + 1) as f64, "x[{gidx}]");
        }
    });
    // Each rank refused the stale schedule once per round.
    assert_eq!(out.stats.session.stale_schedules, 6);
}

/// Coupled programs whose port bindings disagree (the two sides bound
/// different builds of the same coupling) abort symmetrically with
/// [`McError::ScheduleMismatch`] — no deadlock, no data moved — and the
/// transfer succeeds once the stale side rebinds the agreed schedule.
#[test]
fn mismatched_ports_abort_both_sides_then_rebind_retries() {
    use mcsim::group::Group;

    let out = World::with_model(4, MachineModel::sp2()).run(move |ep| {
        let (pa, pb, un) = Group::split_two(2, 2, 32);
        let set: SetOfRegions<RegularSection> = SetOfRegions::single(RegularSection::whole(&[N]));
        if pa.contains(ep.rank()) {
            let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[N]);
            v.fill_with(|c| (c[0] * 5 + 3) as f64);
            let build = |ep: &mut _| {
                compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                    ep,
                    &un,
                    &pa,
                    Some(Side::new(&v, &set)),
                    &pb,
                    None,
                    BuildMethod::Cooperation,
                )
                .unwrap()
            };
            // Two builds of the same coupling: same pairs, distinct
            // transactions (sequence numbers).
            let s1 = build(ep);
            let s2 = build(ep);
            assert_ne!(s1.seq(), s2.seq());
            let mut ports = Coupler::new();
            // This program bound the stale build; the peer bound the fresh
            // one.  Both sides must observe the disagreement as a value.
            ports.try_bind("field", s1).unwrap();
            let e = ports.put(ep, "field", &v).unwrap_err();
            assert!(
                matches!(e, McError::ScheduleMismatch { .. }),
                "sender must see the mismatch, got {e:?}"
            );
            // Recover: displace the stale binding and retry.
            let displaced = ports.bind("field", s2);
            assert!(
                displaced.is_some(),
                "rebinding must hand back the stale schedule"
            );
            ports.put(ep, "field", &v).unwrap();
            Vec::new()
        } else {
            let mut h = HpfArray::<f64>::new(&pb, ep.rank(), HpfDist::block_1d(N, 2));
            let build = |ep: &mut _| {
                compute_schedule::<f64, MultiblockArray<f64>, HpfArray<f64>>(
                    ep,
                    &un,
                    &pa,
                    None,
                    &pb,
                    Some(Side::new(&h, &set)),
                    BuildMethod::Cooperation,
                )
                .unwrap()
            };
            let s1 = build(ep);
            let s2 = build(ep);
            drop(s1);
            let mut ports = Coupler::new();
            ports.try_bind("field", s2).unwrap();
            let e = ports.get(ep, "field", &mut h).unwrap_err();
            assert!(
                matches!(e, McError::ScheduleMismatch { .. }),
                "receiver must see the mismatch, got {e:?}"
            );
            // The aborted attempt staged nothing into the destination.
            assert!((0..N).filter(|&x| h.owns(&[x])).all(|x| h.get(&[x]) == 0.0));
            // This side already holds the agreed build; cycle the port
            // through unbind/try_bind and retry.
            let kept = ports.unbind("field").expect("port was bound");
            ports.try_bind("field", kept).unwrap();
            ports.get(ep, "field", &mut h).unwrap();
            (0..N)
                .filter(|&x| h.owns(&[x]))
                .map(|x| (x, h.get(&[x])))
                .collect::<Vec<_>>()
        }
    });
    for vals in &out.results[2..] {
        assert!(!vals.is_empty());
        for &(x, v) in vals {
            assert_eq!(v, (x * 5 + 3) as f64, "after retry, h[{x}]");
        }
    }
}

/// Raw two-rank reliable stream for the window-edge tests: rank 0 streams
/// `msgs` messages of `bytes` bytes each to rank 1 under `cfg`, and rank 1
/// verifies every byte of every message in order.  Integrity is asserted
/// inside; the caller inspects the returned counters for the edge it
/// provoked.
fn raw_stream(
    plan: Option<FaultPlan>,
    cfg: mcsim::ReliableConfig,
    msgs: usize,
    bytes: usize,
) -> FaultStats {
    use mcsim::reliable::{flush_send, reliable_recv, reliable_send, StreamTag};
    let mut world = World::with_model(2, MachineModel::sp2()).with_reliable_config(cfg);
    if let Some(p) = plan {
        world = world.with_faults(p);
    }
    let out = world.run(move |ep| {
        let st = StreamTag::new(50, 9);
        if ep.rank() == 0 {
            for m in 0..msgs {
                let mut b = ep.take_buf();
                b.extend((0..bytes).map(|i| (m * 131 + i) as u8));
                reliable_send(ep, 1, st, b).expect("window-edge send");
            }
            flush_send(ep, 1, st).expect("window-edge flush");
        } else {
            for m in 0..msgs {
                let b = reliable_recv(ep, 0, st).expect("window-edge recv");
                assert_eq!(b.len(), bytes, "message {m} length");
                assert!(
                    b.iter().enumerate().all(|(i, &x)| x == (m * 131 + i) as u8),
                    "message {m} must arrive intact and in order"
                );
                ep.recycle_buf(b);
            }
        }
    });
    out.stats.faults
}

/// Window edge: duplicated frames and duplicated acks.  A replayed data
/// frame must be re-acked (not redelivered) and a replayed cumulative ack
/// retires nothing — both sides absorb the duplicates and the stream stays
/// byte-perfect.
#[test]
fn window_edge_duplicate_acks_and_frames_are_idempotent() {
    let rates = FaultRates {
        dup: 0.50,
        ..FaultRates::default()
    };
    for seed in seeds() {
        let f = raw_stream(
            Some(FaultPlan::new(seed).rates(rates)),
            mcsim::ReliableConfig::default(),
            8,
            16 << 10,
        );
        assert!(f.dups_injected > 0, "seed {seed}: no duplicates injected");
        assert!(
            f.dup_frames_dropped + f.stale_acks_dropped > 0,
            "seed {seed}: a 50% dup rate must replay a frame or an ack: {f:?}"
        );
    }
}

/// Window edge: a NACK that names an already-retired sequence.  Drops make
/// the receiver report losses; duplicates replay those NACKs after the
/// retransmission has already retired the frame.  The sender must treat
/// the stale report as a no-op instead of dying or re-sending garbage.
#[test]
fn window_edge_stale_nack_for_retired_seq_is_harmless() {
    let rates = FaultRates {
        drop: 0.25,
        dup: 0.35,
        ..FaultRates::default()
    };
    for seed in seeds() {
        let f = raw_stream(
            Some(FaultPlan::new(seed).rates(rates)),
            mcsim::ReliableConfig::default(),
            8,
            16 << 10,
        );
        assert!(f.drops_injected > 0, "seed {seed}: no drops injected");
        assert!(f.dups_injected > 0, "seed {seed}: no dups injected");
        assert!(
            f.retransmits > 0,
            "seed {seed}: losses must force retransmission"
        );
        // Which signal reports the loss depends on where the drop lands: a
        // mid-stream gap is nacked, a trailing or ctrl-frame loss only
        // expires a deadline.  Either way the loss must have been signaled.
        assert!(
            f.nacks_sent + f.timeouts > 0,
            "seed {seed}: every loss must be signaled somehow: {f:?}"
        );
    }
}

/// Window edge: frames arriving out of order inside an open window.  A
/// dropped frame leaves its successors queued in the receiver's reorder
/// buffer; the retransmission must slot into the gap and release the whole
/// run in order (integrity is asserted per byte inside the harness).
#[test]
fn window_edge_out_of_order_within_window_is_reordered() {
    let rates = FaultRates {
        drop: 0.30,
        ..FaultRates::default()
    };
    for seed in seeds() {
        let f = raw_stream(
            Some(FaultPlan::new(seed).rates(rates)),
            mcsim::ReliableConfig::default(),
            12,
            16 << 10,
        );
        assert!(f.drops_injected > 0, "seed {seed}: no drops injected");
        assert!(
            f.retransmits > 0,
            "seed {seed}: gaps must be repaired by retransmits"
        );
        assert!(
            f.nacks_sent > 0,
            "seed {seed}: a gap behind the window edge must be nacked: {f:?}"
        );
    }
}

/// Window protocol events surface on the timeline with exact count parity
/// against the net counters: every `WindowAdvance`, `WindowStall`, and
/// `RetransmitBurst` counted in [`FaultStats`] appears as a trace event,
/// and a universal 50 ms ack delay is guaranteed to blow a whole window of
/// deadlines at once — a retransmit burst, not frame-by-frame decay.
#[test]
fn window_events_trace_with_count_parity() {
    use mcsim::reliable::{flush_send, reliable_recv, reliable_send, StreamTag};
    use mcsim::trace::TraceEvent;

    let plan = FaultPlan::new(seeds()[0]).rates(FaultRates {
        delay: 1.0,
        delay_secs: 0.05,
        ..FaultRates::default()
    });
    let out = World::with_model(2, MachineModel::sp2())
        .with_faults(plan)
        .with_trace()
        .run(move |ep| {
            let st = StreamTag::new(51, 3);
            if ep.rank() == 0 {
                for m in 0..16 {
                    let mut b = ep.take_buf();
                    b.extend((0..4096).map(|i| (m * 37 + i) as u8));
                    reliable_send(ep, 1, st, b).expect("burst send");
                }
                flush_send(ep, 1, st).expect("burst flush");
            } else {
                for _ in 0..16 {
                    let b = reliable_recv(ep, 0, st).expect("burst recv");
                    ep.recycle_buf(b);
                }
            }
        });
    let count = |pred: fn(&TraceEvent) -> bool| -> u64 {
        out.traces.iter().flatten().filter(|e| pred(e)).count() as u64
    };
    let f = &out.stats.faults;
    assert_eq!(
        count(|e| matches!(e, TraceEvent::WindowAdvance { .. })),
        f.window_advances,
        "every counted window advance must appear on the timeline"
    );
    assert_eq!(
        count(|e| matches!(e, TraceEvent::WindowStall { .. })),
        f.window_stalls,
        "every counted window stall must appear on the timeline"
    );
    assert_eq!(
        count(|e| matches!(e, TraceEvent::RetransmitBurst { .. })),
        f.retransmit_bursts,
        "every counted retransmit burst must appear on the timeline"
    );
    assert!(
        f.window_advances > 0,
        "acks must retire frames and advance the window: {f:?}"
    );
    assert!(
        f.retransmit_bursts > 0,
        "a universal 50 ms ack delay must expire several deadlines at once: {f:?}"
    );
}
