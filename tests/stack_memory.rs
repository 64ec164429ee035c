//! Finished worlds give their task stacks back to the OS.
//!
//! Each rank's stack is its own mapping, unmapped when the world ends, so
//! back-to-back large worlds in one process hold steady resident memory
//! instead of accumulating freed-but-resident stack pages.  This file
//! holds a single test so no other test shares the process while its
//! resident set is measured.

use mcsim::{MachineModel, Tag, World};

const P: usize = 1024;

/// Resident set size of this process, in KiB.
fn vm_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("VmRSS in /proc/self/status")
}

/// One P=1024 world whose ranks each touch 64 KiB of their own stack and
/// then park in a ring exchange, so every touched stack is live at once.
fn deep_world() {
    let out = World::with_model(P, MachineModel::zero()).run(|ep| {
        let me = ep.rank();
        let mut pad = [0u8; 64 * 1024];
        for (i, b) in pad.iter_mut().enumerate() {
            *b = (i ^ me) as u8;
        }
        let pad = std::hint::black_box(pad);
        let t = Tag::new(9, 5);
        ep.send((me + 1) % P, t, vec![pad[me % pad.len()]; 8]);
        let got = ep.recv((me + P - 1) % P, t);
        u64::from(got[0]) + u64::from(pad[pad.len() - 1])
    });
    assert_eq!(out.results.len(), P);
}

#[test]
fn back_to_back_worlds_do_not_grow_rss() {
    deep_world();
    let first = vm_rss_kib();
    deep_world();
    deep_world();
    let third = vm_rss_kib();
    assert!(
        third <= first + 32 * 1024,
        "VmRSS grew from {first} KiB after the first world to {third} KiB after the third"
    );
}
