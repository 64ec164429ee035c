//! Scaling properties of the single-threaded discrete-event core.
//!
//! The contract (DESIGN.md §4j): the virtual clock drives a **total
//! order** over rank execution — a rank runs until it blocks on a
//! communication op, parks, and the core resumes the runnable rank with
//! the lowest `(virtual_time, rank)` key.  Byte-identical replay of whole
//! runs is pinned by the digest gate in `tests/digests.rs`.
//!
//! Here: the P=1024 memory budget (a big world must stay cheap until
//! ranks actually run — lazy coroutine stacks, lazy flight rings, capped
//! timelines) and the topology model's determinism under contention.

use mcsim::model::{MachineModel, Topology};
use mcsim::prelude::Endpoint;
use mcsim::world::World;

const P: usize = 64;

/// A 1024-rank world must build and run a neighbor exchange within the
/// documented memory budget: peak RSS (VmHWM) under 512 MiB.  The budget
/// holds because coroutine stacks are mapped and never pre-touched
/// (~2 resident pages each until a rank runs), flight rings allocate
/// lazily and shrink to 16 slots past P=256, and the per-rank O(P)
/// traffic counters total ~16 MiB at P=1024.
#[test]
fn p1024_world_fits_memory_budget() {
    const P_BIG: usize = 1024;
    let world = World::with_model(P_BIG, MachineModel::zero());
    let out = world.run(|ep| {
        let p = ep.world_size();
        let me = ep.rank();
        let t = mcsim::Tag::new(9, 1);
        ep.send((me + 1) % p, t, vec![me as u8; 32]);
        let got = ep.recv((me + p - 1) % p, t);
        got.len() as u64 + got[0] as u64
    });
    assert_eq!(out.results.len(), P_BIG);
    for (r, &v) in out.results.iter().enumerate() {
        let left = (r + P_BIG - 1) % P_BIG;
        assert_eq!(v, 32 + (left as u8) as u64, "rank {r}");
    }

    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let hwm_kb: u64 = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .expect("VmHWM in /proc/self/status");
        assert!(
            hwm_kb < 512 * 1024,
            "P=1024 run peaked at {hwm_kb} kB RSS, budget is 512 MiB"
        );
    }
}

/// Past P=256 the flight ring shrinks so the always-on crash forensics
/// stay O(P·16) instead of O(P·64).
#[test]
fn big_worlds_shrink_the_flight_ring() {
    let big = World::with_model(300, MachineModel::zero());
    let out = big.run(|ep| {
        let t = mcsim::Tag::new(9, 2);
        // Overfill the ring: its len can never exceed the shrunk cap.
        for i in 0..40u32 {
            ep.send(ep.rank(), t, vec![0u8; 8]);
            let _ = ep.recv(ep.rank(), t);
            let _ = i;
        }
        ep.flight_dump().len()
    });
    for (r, &n) in out.results.iter().enumerate() {
        assert!(
            n <= mcsim::FLIGHT_RING_CAP / 4,
            "rank {r}: flight ring held {n} events, cap should be {}",
            mcsim::FLIGHT_RING_CAP / 4
        );
    }
}

/// Topology end-to-end: an 8×8 torus under an incast (everyone sends to
/// rank 0) must charge link contention on the virtual clock, finish later
/// than the contention-free crossbar, and replay identically.
#[test]
fn torus_incast_queues_deterministically() {
    fn incast(ep: &mut Endpoint) -> f64 {
        let t = mcsim::Tag::new(11, 3);
        if ep.rank() == 0 {
            for src in 1..ep.world_size() {
                let _ = ep.recv(src, t);
            }
        } else {
            ep.send(0, t, vec![0xA5; 4096]);
        }
        ep.clock()
    }

    let run = || {
        let out = World::with_model(P, MachineModel::sp2())
            .with_topology(Topology::Torus2D { cols: 8, rows: 8 })
            .with_trace()
            .run(incast);
        assert!(
            out.contended_secs > 0.0,
            "64-to-1 incast on a torus must contend somewhere"
        );
        (
            out.elapsed,
            out.clocks,
            out.traces,
            out.stats,
            out.contended_secs,
        )
    };
    let first = run();
    assert_eq!(first, run(), "torus incast diverged between two runs");

    let crossbar = World::with_model(P, MachineModel::sp2()).run(incast);
    assert!(
        first.0 > crossbar.elapsed,
        "torus incast ({}) should finish after the contention-free crossbar ({})",
        first.0,
        crossbar.elapsed
    );
}

/// `attribute_links` folds a traced run onto the topology's routes; the
/// per-link message totals must account for every cross-rank send.
#[test]
fn link_attribution_accounts_for_every_send() {
    let topo = Topology::Torus2D { cols: 4, rows: 4 };
    let model = MachineModel::sp2();
    let world = World::with_model(16, model)
        .with_topology(topo)
        .with_trace();
    let out = world.run(|ep| {
        let t = mcsim::Tag::new(11, 4);
        let p = ep.world_size();
        let to = (ep.rank() + 5) % p;
        ep.send(to, t, vec![1u8; 256]);
        let _ = ep.recv((ep.rank() + p - 5) % p, t);
    });
    let loads = mcsim::attribute_links(&out.traces, topo, &model);
    assert!(!loads.is_empty());
    let hops: u64 = loads.values().map(|l| l.msgs).sum();
    let min_hops: u64 = (0..16u64)
        .map(|r| topo.hops(r as usize, ((r + 5) % 16) as usize) as u64)
        .sum();
    assert_eq!(
        hops, min_hops,
        "every send must appear on every link of its route"
    );
    assert!(loads.values().all(|l| l.wire_secs > 0.0 && l.bytes > 0));
}
