//! Robustness properties, run as seeded deterministic loops: hostile wire
//! input never panics, distribution arithmetic round-trips under random
//! parameters, HPF shifts agree with their sequential semantics, and
//! communication traces account for every message.
//!
//! Each loop seeds its RNG from [`mcsim::test_seed`] XOR a per-test
//! constant, so the whole suite re-rolls under an `MC_FAULT_SEED`
//! override (the same knob the fault matrix and the fuzz driver honor)
//! while staying deterministic for any fixed value.

use mcsim::group::Group;
use mcsim::rng::Rng;
use mcsim::trace::summarize;
use mcsim::wire::Wire;
use meta_chaos_repro::test_world;

use hpf::{cshift, HpfArray, HpfDist};
use multiblock::{BlockDist, ProcGrid};

/// Decoding arbitrary bytes must fail cleanly, never panic or
/// over-allocate.
#[test]
fn wire_decode_never_panics() {
    let mut rng = Rng::seed_from_u64(mcsim::test_seed() ^ 0xbad_b17e5);
    for _case in 0..64 {
        let len = rng.gen_range(64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = Vec::<f64>::from_bytes(&bytes);
        let _ = Vec::<u32>::from_bytes(&bytes);
        let _ = String::from_bytes(&bytes);
        let _ = Vec::<(usize, u32)>::from_bytes(&bytes);
        let _ = Option::<Vec<u64>>::from_bytes(&bytes);
        let _ = meta_chaos::region::RegularSection::from_bytes(&bytes);
        let _ = meta_chaos::region::IndexSet::from_bytes(&bytes);
        let _ = meta_chaos::schedule::AddrRuns::from_bytes(&bytes);
        let _ = multiblock::BlockDesc::from_bytes(&bytes);
        let _ = chaos::IrregDesc::from_bytes(&bytes);
        let _ = hpf::HpfDesc::from_bytes(&bytes);
        let _ = tulip::TulipDesc::from_bytes(&bytes);
    }
}

/// Every wire value must survive an encode/decode round trip.
#[test]
fn wire_roundtrip_structured() {
    let mut rng = Rng::seed_from_u64(mcsim::test_seed() ^ 0x0471);
    for _case in 0..64 {
        let len = rng.gen_range(20);
        let v: Vec<(u32, f64)> = (0..len)
            .map(|_| {
                let bits = rng.next_u64();
                (rng.next_u64() as u32, f64::from_bits(bits))
            })
            .collect();
        let b = v.to_bytes();
        let back = Vec::<(u32, f64)>::from_bytes(&b).unwrap();
        assert_eq!(back.len(), v.len());
        for ((a1, b1), (a2, b2)) in v.iter().zip(&back) {
            assert_eq!(a1, a2);
            assert!((b1 == b2) || (b1.is_nan() && b2.is_nan()));
        }
        let slen = rng.gen_range(25);
        let owned: String = (0..slen)
            .map(|_| {
                let alphabet = b"abcdefghijklmnopqrstuvwxyzABC 0123456789";
                alphabet[rng.gen_range(alphabet.len())] as char
            })
            .collect();
        assert_eq!(String::from_bytes(&owned.to_bytes()).unwrap(), owned);
    }
}

/// Block distribution owner/local-address arithmetic must be a bijection
/// between owned coordinates and dense local addresses.
#[test]
fn block_dist_addressing_bijective() {
    let mut rng = Rng::seed_from_u64(mcsim::test_seed() ^ 0xb10c);
    let mut cases = 0;
    while cases < 32 {
        let (n0, n1) = (1 + rng.gen_range(11), 1 + rng.gen_range(11));
        let (g0, g1) = (1 + rng.gen_range(3), 1 + rng.gen_range(3));
        let halo = rng.gen_range(3);
        if n0 < g0 || n1 < g1 {
            continue;
        }
        cases += 1;
        let d = BlockDist::new(vec![n0, n1], ProcGrid::new(vec![g0, g1]), halo);
        for rank in 0..g0 * g1 {
            let mut seen = std::collections::HashSet::new();
            let boxx = d.owned_box(rank);
            for i in boxx[0].0..boxx[0].1 {
                for j in boxx[1].0..boxx[1].1 {
                    assert_eq!(d.owner(&[i, j]), rank);
                    let a = d.local_addr(rank, &[i, j]);
                    assert!(a < d.local_alloc_len(rank));
                    assert!(seen.insert(a), "addr {a} reused");
                    assert_eq!(d.global_coords(rank, a), Some(vec![i, j]));
                }
            }
        }
    }
}

/// Parallel CSHIFT equals the sequential definition for random sizes,
/// shifts and process counts.
#[test]
fn cshift_matches_sequential() {
    let mut rng = Rng::seed_from_u64(mcsim::test_seed() ^ 0x5317);
    let mut cases = 0;
    while cases < 24 {
        let n = 2 + rng.gen_range(18);
        let p = 1 + rng.gen_range(3);
        let shift = rng.gen_range(51) as isize - 25;
        if n < p {
            continue;
        }
        cases += 1;
        let out = test_world(p).run(move |ep| {
            let g = Group::world(p);
            let mut a = HpfArray::<f64>::new(&g, ep.rank(), HpfDist::block_1d(n, p));
            a.for_each_owned(|c, v| *v = (c[0] * 3) as f64);
            let r = cshift(ep, &g, &a, 0, shift);
            (0..n)
                .filter(|&x| r.owns(&[x]))
                .map(|x| (x, r.get(&[x])))
                .collect::<Vec<_>>()
        });
        for vals in out.results {
            for (i, v) in vals {
                let want = ((i as isize + shift).rem_euclid(n as isize) * 3) as f64;
                assert_eq!(v, want, "n={n} p={p} shift={shift} r[{i}]");
            }
        }
    }
}

/// A peer that dies mid-transfer must poison its partners: every rank
/// either finishes its part or observes [`McError::PeerFailed`] — nobody
/// hangs, and the failing rank's own panic is reported, not propagated.
#[test]
fn peer_crash_mid_data_move_propagates_as_error() {
    use mcsim::group::Group;
    use meta_chaos::build::{compute_schedule, BuildMethod};
    use meta_chaos::datamove::{data_move_recv, data_move_send};
    use meta_chaos::region::RegularSection;
    use meta_chaos::setof::SetOfRegions;
    use meta_chaos::{McError, Side};
    use multiblock::MultiblockArray;

    let n = 256usize;
    let report = test_world(4).run_result(move |ep| {
        let (pa, pb, un) = Group::split_two(2, 2, 32);
        let set: SetOfRegions<RegularSection> = SetOfRegions::single(RegularSection::whole(&[n]));
        if pa.contains(ep.rank()) {
            let mut v = MultiblockArray::<f64>::new(&pa, ep.rank(), &[n]);
            v.fill_with(|c| c[0] as f64);
            let sched = compute_schedule::<f64, MultiblockArray<f64>, hpf::HpfArray<f64>>(
                ep,
                &un,
                &pa,
                Some(Side::new(&v, &set)),
                &pb,
                None,
                BuildMethod::Cooperation,
            )
            .unwrap();
            if ep.rank() == 1 {
                // Wait until the healthy pair 0 -> 2 has finished (so its
                // outcome cannot race this poison), then die before sending
                // this half — the paired receiver (rank 3) is left waiting.
                let _ = ep.recv(2, mcsim::Tag::user(77));
                panic!("boom: rank 1 gives up");
            }
            data_move_send(ep, &sched, &v)
        } else {
            let mut h = hpf::HpfArray::<f64>::new(&pb, ep.rank(), hpf::HpfDist::block_1d(n, 2));
            let sched = compute_schedule::<f64, MultiblockArray<f64>, hpf::HpfArray<f64>>(
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
            if ep.rank() == 2 {
                // Tell rank 1 the healthy transfer is complete.
                ep.send(1, mcsim::Tag::user(77), Vec::new());
            }
            r
        }
    });
    // The faulty rank's own panic is captured, verbatim.
    match &report.outcomes[1] {
        Err(mcsim::SimError::PeerFailed { rank: 1, reason }) => {
            assert!(reason.contains("boom"), "got reason {reason:?}");
        }
        other => panic!("rank 1: expected its own panic, got {other:?}"),
    }
    // Its partner observed the failure as a value, not a hang or panic.
    match &report.outcomes[3] {
        Ok(Err(McError::PeerFailed { rank: 1, reason })) => {
            assert!(reason.contains("boom"), "got reason {reason:?}");
        }
        other => panic!("rank 3: expected PeerFailed {{rank: 1}}, got {other:?}"),
    }
    // The untouched pair 0 -> 2 completed its transfer.
    assert!(matches!(&report.outcomes[0], Ok(Ok(()))), "rank 0 failed");
    assert!(matches!(&report.outcomes[2], Ok(Ok(()))), "rank 2 failed");
}

/// A scripted crash from a [`FaultPlan`] fires at its virtual time and is
/// observed by the peer as a recoverable error.
#[test]
fn scripted_crash_fires_and_peer_recovers() {
    use mcsim::{FaultPlan, MachineModel, SimError, Tag, World};

    let t_crash = 1e-3;
    let report = World::with_model(2, MachineModel::sp2())
        .with_faults(FaultPlan::new(7).crash(1, t_crash))
        .run_result(move |ep| {
            let t = Tag::user(4);
            let me = ep.rank();
            let peer = 1 - me;
            // Ping-pong until the scripted crash kills rank 1; rank 0 then
            // sees the poison as a value on its result-returning receive.
            for i in 0..100_000 {
                if me == 0 || i > 0 {
                    ep.send(peer, t, vec![0u8; 64]);
                }
                match ep.recv_result(peer, t) {
                    Ok(_) => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
    match &report.outcomes[1] {
        Err(SimError::PeerFailed { rank: 1, reason }) => {
            assert!(
                reason.contains("crashed by fault plan"),
                "got reason {reason:?}"
            );
        }
        other => panic!("rank 1: expected scripted crash, got {other:?}"),
    }
    match &report.outcomes[0] {
        Ok(Err(SimError::PeerFailed { rank: 1, .. })) => {}
        other => panic!("rank 0: expected PeerFailed {{rank: 1}}, got {other:?}"),
    }
    // The crash fired no earlier than scripted.
    assert!(report.clocks[1] >= t_crash);
}

/// `recv_timeout` semantics: a virtually-late message is left stashed and
/// reported as [`SimError::PeerTimeout`], after which a plain receive still
/// takes it; a peer that never sends at all times out when the world
/// falls silent instead of hanging.
#[test]
fn recv_timeout_virtual_deadline_and_liveness_cap() {
    use mcsim::{MachineModel, SimError, Tag, World};

    // Late message: rank 1 burns virtual time before sending, so the
    // arrival lands past rank 0's deadline.
    let out = World::with_model(2, MachineModel::sp2()).run(|ep| {
        let t = Tag::user(9);
        if ep.rank() == 1 {
            ep.charge(5e-3);
            ep.send(0, t, vec![1, 2, 3]);
            return (true, Vec::new());
        }
        let r = ep.recv_timeout(1, t, 1e-3);
        assert!(
            matches!(r, Err(SimError::PeerTimeout { rank: 1 })),
            "expected timeout, got {r:?}"
        );
        // The late message is still there for an undeadlined receive.
        let bytes = ep.recv(1, t);
        (false, bytes)
    });
    assert_eq!(out.results[0].1, vec![1, 2, 3]);

    // Never-sent: the virtual clock cannot advance on silence, so the
    // silence wake converts it into the same PeerTimeout.
    let out = World::with_model(2, MachineModel::sp2()).run(|ep| {
        if ep.rank() == 0 {
            let r = ep.recv_timeout(1, Tag::user(10), 1e-6);
            return matches!(r, Err(SimError::PeerTimeout { rank: 1 }));
        }
        true
    });
    assert!(out.results.iter().all(|&ok| ok));
}

/// Trace accounting: sends on one side equal receives on the other, with
/// matching byte totals, through a full Meta-Chaos transfer.
#[test]
fn traces_balance_across_ranks() {
    use chaos::{IrregArray, Partition};
    use mcsim::group::Comm;
    use meta_chaos::build::{compute_schedule, BuildMethod};
    use meta_chaos::datamove::data_move;
    use meta_chaos::region::{IndexSet, RegularSection};
    use meta_chaos::setof::SetOfRegions;
    use meta_chaos::Side;
    use multiblock::MultiblockArray;

    let n = 36;
    let out = test_world(3).run(move |ep| {
        ep.enable_trace();
        let g = Group::world(3);
        let mut a = MultiblockArray::<f64>::new(&g, ep.rank(), &[n]);
        a.fill_with(|c| c[0] as f64);
        let mut x = {
            let mut comm = Comm::new(ep, g.clone());
            IrregArray::create(&mut comm, n, Partition::Random(5), |_| 0.0)
        };
        let sset = SetOfRegions::single(RegularSection::whole(&[n]));
        let dset = SetOfRegions::single(IndexSet::new((0..n).rev().collect()));
        let sched = compute_schedule(
            ep,
            &g,
            &g,
            Some(Side::new(&a, &sset)),
            &g,
            Some(Side::new(&x, &dset)),
            BuildMethod::Cooperation,
        )
        .unwrap();
        data_move(ep, &sched, &a, &mut x);
        summarize(&ep.take_trace())
    });
    let sends: usize = out.results.iter().map(|s| s.sends).sum();
    let recvs: usize = out.results.iter().map(|s| s.recvs).sum();
    let bytes_out: usize = out.results.iter().map(|s| s.bytes_out).sum();
    let bytes_in: usize = out.results.iter().map(|s| s.bytes_in).sum();
    assert_eq!(sends, recvs, "every send must be received");
    assert_eq!(bytes_out, bytes_in, "every byte must be received");
    assert!(sends > 0);
}

/// A sender that outruns a tiny window must stall at the window edge,
/// resume as acks retire frames, and still deliver every byte in order —
/// under a 2-frame window, the stop-and-wait ablation (window of 1), and
/// the default config, all on the same payload.
#[test]
fn window_full_stall_blocks_then_drains_in_order() {
    use mcsim::reliable::{flush_send, reliable_recv, reliable_send, StreamTag};
    use mcsim::{MachineModel, ReliableConfig, World};

    let tiny = ReliableConfig {
        window_frames: 2,
        ..ReliableConfig::default()
    };
    for (label, cfg, must_stall) in [
        ("2-frame window", tiny, true),
        ("stop-and-wait", ReliableConfig::stop_and_wait(), true),
        ("default window", ReliableConfig::default(), false),
    ] {
        let msgs = 8usize;
        let bytes = 16usize << 10;
        let out = World::with_model(2, MachineModel::sp2())
            .with_reliable_config(cfg)
            .run(move |ep| {
                let st = StreamTag::new(52, 4);
                if ep.rank() == 0 {
                    for m in 0..msgs {
                        let mut b = ep.take_buf();
                        b.extend((0..bytes).map(|i| (m * 59 + i) as u8));
                        reliable_send(ep, 1, st, b).expect("stall send");
                    }
                    flush_send(ep, 1, st).expect("stall flush");
                } else {
                    for m in 0..msgs {
                        let b = reliable_recv(ep, 0, st).expect("stall recv");
                        assert_eq!(b.len(), bytes, "{m}: length");
                        assert!(
                            b.iter().enumerate().all(|(i, &x)| x == (m * 59 + i) as u8),
                            "message {m} must drain in order through the stall"
                        );
                        ep.recycle_buf(b);
                    }
                }
            });
        let f = &out.stats.faults;
        if must_stall {
            assert!(
                f.window_stalls > 0,
                "{label}: 8 frames through a tiny window must stall: {f:?}"
            );
        }
        assert!(
            f.window_advances > 0,
            "{label}: acks must advance the window: {f:?}"
        );
        assert_eq!(f.retransmits, 0, "{label}: fault-free run retransmits");
        assert_eq!(f.timeouts, 0, "{label}: fault-free run times out");
    }
}
