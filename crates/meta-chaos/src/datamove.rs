//! Executing a schedule (paper §4.1.4).
//!
//! The source packs its elements, in linearization order, into one
//! contiguous buffer per destination rank and sends exactly one message per
//! pair; the destination unpacks each buffer into the addresses its half of
//! the schedule lists.  Same-rank pairs are copied directly with no
//! intermediate buffer.
//!
//! The executor rides the schedule's run-length compression end to end:
//! every library exposes its dense local array ([`McObject::storage`]), so
//! packing and unpacking are one slice copy per address run —
//! [`McObject::pack_runs_wire`] / [`McObject::unpack_runs_wire`] between
//! storage and wire buffer, and a direct storage-to-storage copy per
//! [`PairRuns`](crate::schedule::PairRuns) run for same-rank pairs.  The
//! wire codec bulk-encodes scalar payloads, the communicator binds the
//! schedule's group by reference once per half instead of cloning it per
//! peer, and wire buffers come from the endpoint's reuse pool — so a
//! steady-state `data_move` loop does no per-element codec work and no
//! fresh heap allocation.  [`data_move_elementwise`] keeps the
//! pre-compression executor alive as the reference and for
//! apples-to-apples benchmarking (same messages, per-element paths).
//!
//! [`data_move`] serves single-program transfers; across two programs the
//! source program calls [`data_move_send`] and the destination calls
//! [`data_move_recv`] (the paper's `MC_DataMoveSend` / `MC_DataMoveRecv`).
//! Copying in the opposite direction needs no new schedule: pass
//! [`Schedule::reversed`] and swap the roles.
//!
//! ## Raw vs. transactional
//!
//! Same-program [`data_move`] runs **raw**: the schedule-parity guarantee
//! (§4.1.4 — exactly the hand-coded number and sizes of messages) holds
//! bit-for-bit.  Its fallible twin [`try_data_move`] additionally rejects
//! schedules whose objects have been redistributed since the build
//! ([`McError::StaleSchedule`]); since every rank of a single program sees
//! the same epochs, the rejection is symmetric by construction.
//!
//! The cross-program halves run over the **reliable** transport
//! (`mcsim::reliable`) as a transaction:
//!
//! 1. **Manifest exchange** — each pair swaps a compact description of the
//!    transfer it is about to perform (schedule seq, total and per-pair
//!    element counts, element type tag and size).  Disagreement aborts both
//!    sides with [`McError::ScheduleMismatch`] before any data moves.
//! 2. **Verdict round** — each side tells every peer whether it is
//!    proceeding; an abort anywhere (mismatch, stale schedule, failed
//!    third peer) fans out, so no rank is left waiting for data that will
//!    never come.
//! 3. **Staged delivery** — the receive side collects *every* peer's data
//!    half and verifies headers and payload sizes before unpacking
//!    anything.  A peer crash or timeout mid-transfer leaves the
//!    destination bit-identical; a retried transfer is idempotent because
//!    replayed halves from an earlier attempt carry an older transfer
//!    epoch and are discarded.
//!
//! ## The move stream
//!
//! A schedule's cross-program traffic runs on one reliable stream per
//! pair (`move_stream`).  Each data half is a sequence of parts, every
//! part one frame `[transfer epoch][last][count]` followed by `count`
//! packed elements.  The resumable [`crate::session`] protocol uses the
//! same stream and the same parts, plus control frames `[marker][value]`
//! whose marker lies below `DATA_FLOOR`.
//!
//! Both protocols receive through one function, `stage_half`, which
//! differs between them only in how it reads a part's epoch
//! (`Epochs`).  A staged half is committed by `commit_one_half`.

use std::collections::HashMap;

use mcsim::group::Comm;
use mcsim::prelude::Endpoint;
use mcsim::reliable::{self, StreamTag};
use mcsim::span::Phase;
use mcsim::wire::{Wire, WireReader};

use crate::adapter::McObject;
use crate::error::McError;
use crate::obs;
use crate::schedule::{AddrRuns, Schedule};

/// User-tag bit layout for data-move traffic: schedule seq in the high
/// bits, leaving the low bits to keep streams of distinct schedules apart.
fn move_tag(seq: u32) -> u32 {
    0x4000_0000 | seq
}

/// The manifest/verdict control stream: one per context, *shared by every
/// schedule* in that context so that two sides which disagree about the
/// schedule (different seq → different data streams) still pair up for the
/// exchange that detects the disagreement.
const MANIFEST_STREAM: u32 = 0x0FFF_FFFF;

/// Frame discriminators on the control stream.
const K_MANIFEST: u8 = 1;
const K_VERDICT: u8 = 2;

/// Verdict codes.
const V_OK: u8 = 0;
const V_ABORT_MISMATCH: u8 = 1;
const V_ABORT_STALE: u8 = 2;
const V_ABORT_PEER: u8 = 3;

/// Scratch key of the per-rank transfer-epoch counters, keyed by
/// `(context << 32) | seq`.  The sender bumps the counter once per
/// transfer attempt and announces it in the manifest; the receiver
/// discards data halves carrying an older epoch (replays of an aborted
/// attempt), which is what makes a retried transfer idempotent.
const XFER_EPOCH_KEY: u32 = 0x5845_504f; // "XEPO"

/// Next transfer epoch for this schedule's data stream (starts at 1; 0 is
/// the receiver-side placeholder meaning "not a data sender").
pub(crate) fn next_xfer_epoch(ep: &mut Endpoint, sched: &Schedule) -> u64 {
    let key = ((sched.group().context() as u64) << 32) | sched.seq() as u64;
    let m: &mut HashMap<u64, u64> = ep.scratch(XFER_EPOCH_KEY);
    let e = m.entry(key).or_insert(0);
    *e += 1;
    *e
}

/// Move data for a schedule where this rank participates on both sides
/// (single-program transfer).  Reusable any number of times.
///
/// Panics if the schedule is stale (an object was redistributed after the
/// build); use [`try_data_move`] to observe that as a value.
pub fn data_move<T, S, D>(ep: &mut Endpoint, sched: &Schedule, src: &S, dst: &mut D)
where
    T: Copy + Wire,
    S: McObject<T>,
    D: McObject<T>,
{
    try_data_move(ep, sched, src, dst).unwrap_or_else(|e| panic!("data_move failed: {e}"));
}

/// Fallible single-program transfer: rejects a schedule built against an
/// older distribution of either object with [`McError::StaleSchedule`]
/// (before any communication — every rank of the program sees the same
/// epochs, so the rejection is symmetric), then runs the raw executor.
pub fn try_data_move<T, S, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    dst: &mut D,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
    D: McObject<T>,
{
    let span = ep.span_begin(Phase::Transfer, || {
        format!(
            "mode=raw seq={} elems={} elem_size={}",
            sched.seq(),
            sched.total_elems,
            sched.elem_size()
        )
    });
    let r = try_data_move_inner(ep, sched, src, dst);
    if let Err(e) = &r {
        obs::record_abort(ep, e);
    }
    ep.span_end(span);
    r
}

fn try_data_move_inner<T, S, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    dst: &mut D,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
    D: McObject<T>,
{
    reject_stale(ep, src.epoch(), sched.src_epoch())?;
    reject_stale(ep, dst.epoch(), sched.dst_epoch())?;
    // Post all sends first (buffered channels make this deadlock-free),
    // then do local copies, then drain receives.
    send_half(ep, sched, src);
    local_copies(ep, sched, src, dst);
    recv_half(ep, sched, dst);
    Ok(())
}

/// `Some((object, schedule))` when the epochs disagree.
fn stale_pair(object: u64, schedule: u64) -> Option<(u64, u64)> {
    (object != schedule).then_some((object, schedule))
}

/// Refuse, and count, a schedule built against an older distribution of
/// an object: the check of every path that has no verdict round to carry
/// it (the raw executor and the recovery session).
pub(crate) fn reject_stale(ep: &mut Endpoint, object: u64, schedule: u64) -> Result<(), McError> {
    match stale_pair(object, schedule) {
        None => Ok(()),
        Some((object_epoch, schedule_epoch)) => {
            ep.record_stale_schedule();
            Err(McError::StaleSchedule {
                object_epoch,
                schedule_epoch,
            })
        }
    }
}

/// Source-program half of a two-program transfer: manifest exchange and
/// verdict round first (the transaction's prepare phase), then the data
/// frames over the reliable transport.
///
/// Fails (without communicating) when the schedule evidently belongs to a
/// different call: cross-program schedules never contain local pairs, and
/// a rank that also receives must use [`data_move`] or be on the
/// [`data_move_recv`] side.  Under an active fault plan the frames are
/// retransmitted as needed; [`McError::PeerTimeout`] means the retry
/// budget ran out (permanent partition) and [`McError::PeerFailed`] means
/// a peer crashed.  [`McError::ScheduleMismatch`] and
/// [`McError::StaleSchedule`] are raised symmetrically on both sides of
/// the affected pair before any data has moved.
pub fn data_move_send<T, S>(ep: &mut Endpoint, sched: &Schedule, src: &S) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    send_side_guards(sched)?;
    if sched.sends.is_empty() {
        return Ok(());
    }
    let te = next_xfer_epoch(ep, sched);
    let span = ep.span_begin(Phase::Transfer, || {
        format!(
            "mode=send seq={} te={} pairs={} elems={} src_epoch={}",
            sched.seq(),
            te,
            sched.sends.len(),
            sched.total_elems,
            sched.src_epoch()
        )
    });
    let r = settle(
        ep,
        sched,
        &sched.sends,
        te,
        stale_pair(src.epoch(), sched.src_epoch()),
    )
    .and_then(|_| send_data_frames(ep, sched, src, te));
    if let Err(e) = &r {
        obs::record_abort(ep, e);
    }
    ep.span_end(span);
    r
}

/// Destination-program half of a two-program transfer.  Misuse reporting
/// mirrors [`data_move_send`]; transport outcomes do too.  Delivery is
/// all-or-nothing: every peer's half is staged and verified before the
/// first element is unpacked, so any error leaves `dst` untouched.
pub fn data_move_recv<T, D>(ep: &mut Endpoint, sched: &Schedule, dst: &mut D) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    recv_side_guards(sched)?;
    if sched.recvs.is_empty() {
        return Ok(());
    }
    let span = ep.span_begin(Phase::Transfer, || {
        format!(
            "mode=recv seq={} pairs={} elems={} dst_epoch={}",
            sched.seq(),
            sched.recvs.len(),
            sched.total_elems,
            sched.dst_epoch()
        )
    });
    let r = settle(
        ep,
        sched,
        &sched.recvs,
        0,
        stale_pair(dst.epoch(), sched.dst_epoch()),
    )
    .and_then(|expected| recv_data_frames(ep, sched, dst, &expected));
    if let Err(e) = &r {
        obs::record_abort(ep, e);
    }
    ep.span_end(span);
    r
}

/// Misuse checks of a cross-program send half: no local pairs, no
/// receives.
pub(crate) fn send_side_guards(sched: &Schedule) -> Result<(), McError> {
    if !sched.local_pairs.is_empty() {
        return Err(McError::LocalPairsInCrossProgramMove {
            pairs: sched.local_pairs.len(),
        });
    }
    if !sched.recvs.is_empty() {
        return Err(McError::SendSideHasReceives {
            peers: sched.msgs_in(),
        });
    }
    Ok(())
}

/// Misuse checks of a cross-program receive half: no local pairs, no
/// sends.
pub(crate) fn recv_side_guards(sched: &Schedule) -> Result<(), McError> {
    if !sched.local_pairs.is_empty() {
        return Err(McError::LocalPairsInCrossProgramMove {
            pairs: sched.local_pairs.len(),
        });
    }
    if !sched.sends.is_empty() {
        return Err(McError::RecvSideHasSends {
            peers: sched.msgs_out(),
        });
    }
    Ok(())
}

/// What one side announces to a pair peer before data moves.  Both sides
/// send one; everything except `transfer_epoch` (sender-only) must agree.
struct Manifest {
    seq: u32,
    total_elems: u64,
    elem_tag: u64,
    elem_size: u32,
    pair_elems: u64,
    transfer_epoch: u64,
}

fn write_manifest(buf: &mut Vec<u8>, m: &Manifest) {
    K_MANIFEST.write(buf);
    m.seq.write(buf);
    m.total_elems.write(buf);
    m.elem_tag.write(buf);
    m.elem_size.write(buf);
    m.pair_elems.write(buf);
    m.transfer_epoch.write(buf);
}

fn parse_manifest(bytes: &[u8], peer: usize) -> Result<Manifest, McError> {
    let mut r = WireReader::new(bytes);
    let bad = |e| McError::Transport(format!("malformed manifest from rank {peer}: {e}"));
    let kind = u8::read(&mut r).map_err(bad)?;
    if kind != K_MANIFEST {
        return Err(McError::Transport(format!(
            "expected a manifest from rank {peer}, got control frame kind {kind}"
        )));
    }
    Ok(Manifest {
        seq: u32::read(&mut r).map_err(bad)?,
        total_elems: u64::read(&mut r).map_err(bad)?,
        elem_tag: u64::read(&mut r).map_err(bad)?,
        elem_size: u32::read(&mut r).map_err(bad)?,
        pair_elems: u64::read(&mut r).map_err(bad)?,
        transfer_epoch: u64::read(&mut r).map_err(bad)?,
    })
}

/// First disagreement between my schedule's view of a pair and the peer's
/// manifest, as a human-readable detail string.
fn manifest_disagreement(sched: &Schedule, my_pair_elems: u64, m: &Manifest) -> Option<String> {
    if m.seq != sched.seq() {
        return Some(format!(
            "schedule seq {} here vs {} at the peer",
            sched.seq(),
            m.seq
        ));
    }
    if m.total_elems != sched.total_elems as u64 {
        return Some(format!(
            "transfer totals {} elements here vs {} at the peer",
            sched.total_elems, m.total_elems
        ));
    }
    if m.elem_tag != sched.elem_tag() || m.elem_size != sched.elem_size() {
        return Some(format!(
            "element type differs ({}-byte elements here vs {}-byte at the peer)",
            sched.elem_size(),
            m.elem_size
        ));
    }
    if m.pair_elems != my_pair_elems {
        return Some(format!(
            "this pair carries {my_pair_elems} elements here vs {} at the peer",
            m.pair_elems
        ));
    }
    None
}

fn write_verdict(buf: &mut Vec<u8>, code: u8, a: u64, b: u64) {
    K_VERDICT.write(buf);
    code.write(buf);
    a.write(buf);
    b.write(buf);
}

fn parse_verdict(bytes: &[u8], peer: usize) -> Result<(u8, u64, u64), McError> {
    let mut r = WireReader::new(bytes);
    let bad = |e| McError::Transport(format!("malformed verdict from rank {peer}: {e}"));
    let kind = u8::read(&mut r).map_err(bad)?;
    if kind != K_VERDICT {
        return Err(McError::Transport(format!(
            "expected a verdict from rank {peer}, got control frame kind {kind}"
        )));
    }
    Ok((
        u8::read(&mut r).map_err(bad)?,
        u64::read(&mut r).map_err(bad)?,
        u64::read(&mut r).map_err(bad)?,
    ))
}

/// The transaction's prepare phase, identical on both sides: exchange
/// manifests with every pair peer, then exchange verdicts, and only return
/// `Ok` when *everyone* agreed to proceed.  Each phase posts to every peer
/// before reading from any, so the exchange cannot deadlock; a transport
/// error against one peer still drains the remaining live peers.
///
/// Returns the per-pair transfer epochs the peers announced (meaningful on
/// the receive side; senders announce `my_te` and ignore the result).
fn settle(
    ep: &mut Endpoint,
    sched: &Schedule,
    pairs: &[(usize, AddrRuns)],
    my_te: u64,
    my_stale: Option<(u64, u64)>,
) -> Result<Vec<u64>, McError> {
    let span = ep.span_begin(Phase::Manifest, || {
        format!("seq={} pairs={} te={}", sched.seq(), pairs.len(), my_te)
    });
    let r = settle_inner(ep, sched, pairs, my_te, my_stale);
    ep.span_end(span);
    r
}

fn settle_inner(
    ep: &mut Endpoint,
    sched: &Schedule,
    pairs: &[(usize, AddrRuns)],
    my_te: u64,
    my_stale: Option<(u64, u64)>,
) -> Result<Vec<u64>, McError> {
    let st = StreamTag::new(sched.group().context(), MANIFEST_STREAM);
    let group = sched.group();
    let n = pairs.len();
    let mut dead = vec![false; n];
    // The first transport failure, kept with the peer it happened against:
    // transport errors outrank mismatch/stale in what we report, because
    // they are the only causes the other live peers will see too.
    let mut failed: Option<McError> = None;
    fn note_failure(dead: &mut [bool], failed: &mut Option<McError>, i: usize, e: McError) {
        dead[i] = true;
        if failed.is_none() {
            *failed = Some(e);
        }
    }

    // Phase 1: announce my manifest to every pair peer.
    for (i, (peer, runs)) in pairs.iter().enumerate() {
        let m = Manifest {
            seq: sched.seq(),
            total_elems: sched.total_elems as u64,
            elem_tag: sched.elem_tag(),
            elem_size: sched.elem_size(),
            pair_elems: runs.len() as u64,
            transfer_epoch: my_te,
        };
        let mut buf = ep.take_buf();
        write_manifest(&mut buf, &m);
        if let Err(e) = reliable::reliable_send(ep, group.global(*peer), st, buf) {
            note_failure(&mut dead, &mut failed, i, e.into());
        }
    }

    // Phase 2: read every live peer's manifest; collect the first
    // disagreement but keep draining so no peer is left unpaired.
    let mut peer_te = vec![0u64; n];
    let mut mismatch: Option<(usize, String)> = None;
    for (i, (peer, runs)) in pairs.iter().enumerate() {
        if dead[i] {
            continue;
        }
        let pg = group.global(*peer);
        match reliable::reliable_recv(ep, pg, st) {
            Ok(bytes) => match parse_manifest(&bytes, pg) {
                Ok(m) => {
                    peer_te[i] = m.transfer_epoch;
                    if mismatch.is_none() {
                        if let Some(detail) = manifest_disagreement(sched, runs.len() as u64, &m) {
                            mismatch = Some((pg, detail));
                        }
                    }
                    ep.recycle_buf(bytes);
                }
                Err(e) => note_failure(&mut dead, &mut failed, i, e),
            },
            Err(e) => note_failure(&mut dead, &mut failed, i, e.into()),
        }
    }

    // My verdict, in decreasing severity: a dead peer dooms the transfer
    // for everyone; a stale schedule or manifest mismatch aborts it cleanly.
    let my_verdict: (u8, u64, u64) = if let Some(e) = &failed {
        let r = match e {
            McError::PeerFailed { rank, .. }
            | McError::PeerTimeout { rank, .. }
            | McError::PeerEvicted { rank, .. } => *rank as u64,
            _ => u64::MAX,
        };
        (V_ABORT_PEER, r, 0)
    } else if let Some((oe, se)) = my_stale {
        (V_ABORT_STALE, oe, se)
    } else if mismatch.is_some() {
        (V_ABORT_MISMATCH, 0, 0)
    } else {
        (V_OK, 0, 0)
    };
    if my_verdict.0 != V_OK {
        ep.mark(|| {
            let why = match my_verdict.0 {
                V_ABORT_PEER => "peer-failed",
                V_ABORT_STALE => "stale-schedule",
                _ => "manifest-mismatch",
            };
            format!("verdict abort cause={why} seq={}", sched.seq())
        });
    }

    // Phase 3: post my verdict to every live peer.
    for (i, (peer, _)) in pairs.iter().enumerate() {
        if dead[i] {
            continue;
        }
        let mut buf = ep.take_buf();
        write_verdict(&mut buf, my_verdict.0, my_verdict.1, my_verdict.2);
        if let Err(e) = reliable::reliable_send(ep, group.global(*peer), st, buf) {
            note_failure(&mut dead, &mut failed, i, e.into());
        }
    }

    // Phase 4: read every live peer's verdict.
    let mut peer_abort: Option<McError> = None;
    let mut abort_peer: Option<usize> = None;
    for (i, (peer, _)) in pairs.iter().enumerate() {
        if dead[i] {
            continue;
        }
        let pg = group.global(*peer);
        match reliable::reliable_recv(ep, pg, st) {
            Ok(bytes) => match parse_verdict(&bytes, pg) {
                Ok((code, a, b)) => {
                    if code != V_OK && peer_abort.is_none() {
                        abort_peer = Some(pg);
                        peer_abort = Some(match code {
                            V_ABORT_STALE => McError::StaleSchedule {
                                object_epoch: a,
                                schedule_epoch: b,
                            },
                            V_ABORT_PEER => McError::PeerFailed {
                                rank: a as usize,
                                reason: format!(
                                    "rank {a} failed mid-transfer; peer rank {pg} aborted"
                                ),
                            },
                            _ => McError::ScheduleMismatch {
                                peer: pg,
                                detail: "peer aborted: transfer manifests disagree".into(),
                            },
                        });
                    }
                    ep.recycle_buf(bytes);
                }
                Err(e) => note_failure(&mut dead, &mut failed, i, e),
            },
            Err(e) => note_failure(&mut dead, &mut failed, i, e.into()),
        }
    }

    if let Some(pg) = abort_peer {
        ep.mark(|| {
            format!(
                "verdict abort cause=peer-verdict peer={pg} seq={}",
                sched.seq()
            )
        });
    }
    if failed.is_none() && my_verdict.0 == V_OK && peer_abort.is_none() {
        return Ok(peer_te);
    }
    // Abort: nothing has been sent on the data stream, the destination is
    // untouched, and every live peer received an abort verdict.
    ep.record_transfer_aborted();
    if my_stale.is_some() {
        ep.record_stale_schedule();
    }
    if let Some(e) = failed {
        return Err(e);
    }
    if let Some((object_epoch, schedule_epoch)) = my_stale {
        return Err(McError::StaleSchedule {
            object_epoch,
            schedule_epoch,
        });
    }
    if let Some((peer, detail)) = mismatch {
        return Err(McError::ScheduleMismatch { peer, detail });
    }
    Err(peer_abort.expect("abort must have a cause"))
}

/// Headroom for the part header ([`PART_HDR_LEN`]) subtracted from the
/// transport chunk size so one part's payload always fits a single
/// reliable frame (zero-copy delivery).
const PART_HDR_SLACK: usize = 32;

/// Elements per streamed part: as many as fit one transport chunk, so the
/// pack of part `k+1` overlaps the wire time of part `k` inside the
/// sliding window instead of serializing pack → wire → unpack.
fn part_elems(ep: &Endpoint, elem_size: usize) -> usize {
    let budget = ep
        .reliable_config()
        .chunk_bytes
        .saturating_sub(PART_HDR_SLACK)
        .max(1);
    (budget / elem_size.max(1)).max(1)
}

/// Pack and post each pair's half (see [`post_half`]), then wait for
/// every acknowledgement.
fn send_data_frames<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    te: u64,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    let st = move_stream(sched);
    let group = sched.group();
    for (peer, runs) in &sched.sends {
        post_half(ep, sched, src, te, group.global(*peer), runs)?;
    }
    let wire = ep.span_begin(Phase::Wire, || {
        format!("pairs={} te={te}", sched.sends.len())
    });
    let mut flushed = Ok(());
    for (peer, _) in &sched.sends {
        if let Err(e) = reliable::flush_send(ep, group.global(*peer), st) {
            flushed = Err(e.into());
            break;
        }
    }
    ep.span_end(wire);
    flushed
}

/// Length of a part's header: transfer epoch (8), last-part flag (1),
/// element count (8).
const PART_HDR_LEN: usize = 17;

/// First transfer epoch a recovery session gives a data part; a first
/// word below it marks one of the session's control frames.
pub(crate) const DATA_FLOOR: u64 = 1 << 32;

/// Session control-frame markers: the receiver's position (`value` = the
/// next step it needs), a failed stage of step `value`, and the sender's
/// close after `value` steps.
pub(crate) const M_POS: u64 = 1;
pub(crate) const M_NAK: u64 = 2;
pub(crate) const M_FIN: u64 = 3;

/// Post one session control frame `[marker][value]` and flush it.
pub(crate) fn post_ctrl(
    ep: &mut Endpoint,
    to: usize,
    st: StreamTag,
    marker: u64,
    value: u64,
) -> Result<(), McError> {
    let mut buf = ep.take_buf();
    marker.write(&mut buf);
    value.write(&mut buf);
    reliable::reliable_send(ep, to, st, buf)?;
    reliable::flush_send(ep, to, st)?;
    Ok(())
}

/// Collect every peer's data half, verify all of them, and only then
/// unpack, so a failure anywhere leaves `dst` bit-identical.
fn recv_data_frames<T, D>(
    ep: &mut Endpoint,
    sched: &Schedule,
    dst: &mut D,
    expected: &[u64],
) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    let staged = stage_halves(ep, sched, expected)?;
    // Commit: every half arrived and verified.  Staging holds the received
    // wire buffers themselves, so this is the same single unpack as the
    // streaming path — deferred, not duplicated.
    let commit = ep.span_begin(Phase::Commit, || {
        format!("seq={} pairs={}", sched.seq(), sched.recvs.len())
    });
    let group = sched.group();
    let committed = sched
        .recvs
        .iter()
        .zip(staged)
        .try_for_each(|((peer, runs), parts)| {
            commit_one_half(ep, dst, group.global(*peer), runs, parts)
        });
    ep.span_end(commit);
    if committed.is_ok() {
        ep.record_transfer_committed();
    }
    committed
}

/// The staging phase of [`recv_data_frames`]: [`stage_half`] for every
/// pair at the epoch its manifest announced.  A failure anywhere recycles
/// everything staged and aborts the transfer, leaving the destination
/// bit-identical.
fn stage_halves(
    ep: &mut Endpoint,
    sched: &Schedule,
    expected: &[u64],
) -> Result<Vec<Half>, McError> {
    let st = move_stream(sched);
    let group = sched.group();
    let esz = sched.elem_size() as usize;
    let mut staged = Vec::with_capacity(sched.recvs.len());
    let mut fail: Option<McError> = None;
    let stage = ep.span_begin(Phase::Stage, || {
        format!("seq={} pairs={}", sched.seq(), sched.recvs.len())
    });
    for ((peer, runs), &te) in sched.recvs.iter().zip(expected) {
        match stage_half(
            ep,
            st,
            esz,
            group.global(*peer),
            runs,
            Epochs::Announced(te),
        ) {
            Ok(parts) => staged.push(parts),
            Err(e) => {
                fail = Some(e);
                break;
            }
        }
    }
    ep.span_end(stage);
    if let Some(e) = fail {
        let total: usize = staged.iter().map(Vec::len).sum();
        let abort = ep.span_begin(Phase::Abort, || {
            format!("seq={} staged={total}", sched.seq())
        });
        for (_, b) in staged.into_iter().flatten() {
            ep.recycle_buf(b);
        }
        ep.record_transfer_aborted();
        ep.span_end(abort);
        return Err(e);
    }
    Ok(staged)
}

/// A staged half: its `(element count, frame)` parts in arrival order.
pub(crate) type Half = Vec<(usize, Vec<u8>)>;

/// How a receive protocol reads the transfer epoch of an arriving part:
/// the one policy in which [`stage_half`]'s callers differ.
#[derive(Clone, Copy)]
pub(crate) enum Epochs {
    /// A transaction: take parts of the epoch the pair's manifest
    /// announced.  An older epoch is a half replayed from an aborted
    /// attempt, dropped through its last part and counted once; a newer
    /// one fails.
    Announced(u64),
    /// A recovery session staging step `k`.  The epoch is `(step + 1) <<
    /// 32 | attempt`.  A part of an older step is a replay, absorbed and
    /// answered with the receiver's position `pos` once its half is
    /// complete; a later step fails.  Within step `k`, a newer attempt
    /// restarts collection (the sender abandoned the partial half) and
    /// an older one is dropped.  A control frame fails.
    Step { k: u64, pos: u64 },
    /// A recovery session closing: every data part is a replay, answered
    /// like a [`Epochs::Step`] replay, and the sender's FIN ends the half
    /// with no parts.  Other control frames are skipped.
    Closing { pos: u64 },
}

/// Read one pair's half off the move stream `st` from global rank `pg`:
/// parse each part's header, apply the protocol's epoch policy, check the
/// payload against `count × esz` bytes and the running element count
/// against the pair's `runs`, and count every staged frame.  Returns the
/// half as `(count, frame)` parts in arrival order; on failure every
/// part is recycled and nothing escapes.
pub(crate) fn stage_half(
    ep: &mut Endpoint,
    st: StreamTag,
    esz: usize,
    pg: usize,
    runs: &AddrRuns,
    epochs: Epochs,
) -> Result<Half, McError> {
    let mut parts = Vec::new();
    let r = stage_parts(ep, st, esz, pg, runs, epochs, &mut parts);
    if r.is_err() {
        for (_, b) in parts.drain(..) {
            ep.recycle_buf(b);
        }
    }
    r.map(|()| parts)
}

fn stage_parts(
    ep: &mut Endpoint,
    st: StreamTag,
    esz: usize,
    pg: usize,
    runs: &AddrRuns,
    epochs: Epochs,
    parts: &mut Half,
) -> Result<(), McError> {
    let mut got = 0usize;
    // Session: the attempt whose half is being collected.
    let mut attempt = 0u64;
    // Transaction: inside a replayed half, which was counted at its first
    // part.
    let mut in_stale = false;
    // Session: parts of the replayed half read so far.
    let mut replayed = 0usize;
    loop {
        let bytes = reliable::reliable_recv(ep, pg, st)?;
        let mut r = WireReader::new(&bytes);
        let bad = |e| {
            McError::Transport(match epochs {
                Epochs::Announced(_) => {
                    format!("data frame from rank {pg} has no transfer header: {e}")
                }
                Epochs::Step { .. } => format!("data frame from rank {pg}: {e}"),
                Epochs::Closing { .. } => format!("session frame from rank {pg}: {e}"),
            })
        };
        let te = u64::read(&mut r).map_err(bad)?;
        if te < DATA_FLOOR && !matches!(epochs, Epochs::Announced(_)) {
            ep.recycle_buf(bytes);
            match epochs {
                Epochs::Closing { .. } if te == M_FIN => return Ok(()),
                Epochs::Step { k, .. } => {
                    // A control frame can only be a sender's FIN — and a
                    // sender cannot finish while this pair still owes it
                    // a position.
                    return Err(McError::Transport(format!(
                        "unexpected control frame (marker {te}) from rank {pg} while staging step {k}"
                    )));
                }
                _ => continue,
            }
        }
        let last = u8::read(&mut r).map_err(bad)? != 0;
        let count = usize::read(&mut r).map_err(bad)?;
        let payload = r.remaining();
        match epochs {
            Epochs::Announced(want) => {
                if te < want {
                    if !in_stale {
                        ep.record_stale_half();
                    }
                    in_stale = !last;
                    ep.recycle_buf(bytes);
                    continue;
                }
                if te > want {
                    return Err(McError::Transport(format!(
                        "data frame from rank {pg} is from transfer epoch {te}, manifest announced {want}"
                    )));
                }
            }
            Epochs::Step { pos, .. } | Epochs::Closing { pos } => {
                let want = match epochs {
                    Epochs::Step { k, .. } => k + 1,
                    _ => u64::MAX,
                };
                let (step, epoch) = (te >> 32, te & 0xFFFF_FFFF);
                if step < want {
                    // Replay of a half an earlier step (possibly an
                    // earlier life) already accepted.
                    replayed += 1;
                    ep.recycle_buf(bytes);
                    if last {
                        ep.record_stale_half();
                        ep.record_parts_replayed(pg, replayed);
                        replayed = 0;
                        post_ctrl(ep, pg, st, M_POS, pos)?;
                    }
                    continue;
                }
                if step > want {
                    return Err(McError::Transport(format!(
                        "data frame from rank {pg} is for session step {}, expected {}",
                        step - 1,
                        want - 1
                    )));
                }
                if !parts.is_empty() && epoch < attempt {
                    ep.record_stale_half();
                    ep.recycle_buf(bytes);
                    continue;
                }
                if parts.is_empty() || epoch > attempt {
                    for (_, b) in parts.drain(..) {
                        ep.recycle_buf(b);
                    }
                    got = 0;
                    attempt = epoch;
                }
            }
        }
        if esz != 0 && payload != count * esz {
            return Err(McError::Transport(format!(
                "part from rank {pg} has {payload} payload bytes, expected {}",
                count * esz
            )));
        }
        got += count;
        if got > runs.len() || (last && got != runs.len()) {
            return Err(McError::Transport(format!(
                "half from rank {pg} carries {got} elements, schedule expects {}",
                runs.len()
            )));
        }
        ep.record_staged_frame();
        parts.push((count, bytes));
        if last {
            return Ok(());
        }
    }
}

fn send_half<T, S>(ep: &mut Endpoint, sched: &Schedule, src: &S)
where
    T: Copy + Wire,
    S: McObject<T>,
{
    if sched.sends.is_empty() {
        return;
    }
    let t = move_tag(sched.seq());
    let mut comm = Comm::borrowed(ep, sched.group());
    for (peer, runs) in &sched.sends {
        // Encode the `Vec<T>` wire layout directly: count header, then the
        // source elements packed straight into a pooled wire buffer — one
        // copy, no intermediate typed buffer.
        let pack = comm.ep().span_begin(Phase::Pack, || {
            format!("seq={} peer={peer} runs={}", sched.seq(), runs.len())
        });
        let mut buf = comm.ep().take_buf();
        runs.len().write(&mut buf);
        src.pack_runs_wire(comm.ep(), runs, &mut buf);
        comm.ep().span_end(pack);
        let wire = comm
            .ep()
            .span_begin(Phase::Wire, || format!("seq={} peer={peer}", sched.seq()));
        comm.send(*peer, t, buf);
        comm.ep().span_end(wire);
    }
}

/// The reliable stream a schedule's cross-program traffic runs on: same
/// context as the raw path, stream id = schedule seq (the tag class moves
/// from `0x4` to the reliable pair `0x5`/`0x6`).
pub(crate) fn move_stream(sched: &Schedule) -> StreamTag {
    StreamTag::new(sched.group().context(), sched.seq())
}

/// Pack, post, and flush ONE pair's half (per-pair counterpart of
/// [`send_data_frames`], used by the recovery session to retry exactly
/// the pairs that have not confirmed a step).
pub(crate) fn send_one_half<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    te: u64,
    pg: usize,
    runs: &AddrRuns,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    post_half(ep, sched, src, te, pg, runs)?;
    let wire = ep.span_begin(Phase::Wire, || format!("peer={pg} te={te}"));
    let r = reliable::flush_send(ep, pg, move_stream(sched)).map_err(McError::from);
    ep.span_end(wire);
    r
}

/// Pack and post one pair's half as a stream of parts — every part one
/// reliable frame carrying `[transfer epoch][last flag][element count]`
/// plus that slice of the packed payload.  Posting a part admits it into
/// the sliding window and returns, so packing the next part overlaps the
/// previous part's wire time.
fn post_half<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    te: u64,
    pg: usize,
    runs: &AddrRuns,
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    let st = move_stream(sched);
    let per_part = part_elems(ep, sched.elem_size() as usize);
    let total = runs.len();
    let pack = ep.span_begin(Phase::Pack, || {
        format!(
            "peer={pg} runs={total} te={te} parts={}",
            total.div_ceil(per_part)
        )
    });
    let mut cursor = 0usize;
    while cursor < total {
        let cnt = per_part.min(total - cursor);
        let last = cursor + cnt == total;
        let mut buf = ep.take_buf();
        te.write(&mut buf);
        u8::from(last).write(&mut buf);
        cnt.write(&mut buf);
        let part = runs.slice_elems(cursor, cnt);
        src.pack_runs_wire(ep, &part, &mut buf);
        cursor += cnt;
        if let Err(e) = reliable::reliable_send(ep, pg, st, buf) {
            ep.span_end(pack);
            return Err(e.into());
        }
    }
    ep.span_end(pack);
    Ok(())
}

/// Unpack ONE staged half into `dst`: the commit step of
/// [`recv_data_frames`] and of the recovery session.  Each part unpacks
/// into its slice of the pair's destination runs; the parts are consumed
/// and recycled.
pub(crate) fn commit_one_half<T, D>(
    ep: &mut Endpoint,
    dst: &mut D,
    pg: usize,
    runs: &AddrRuns,
    parts: Half,
) -> Result<(), McError>
where
    T: Copy + Wire,
    D: McObject<T>,
{
    let mut cursor = 0usize;
    for (count, bytes) in parts {
        let mut r = WireReader::new(&bytes[PART_HDR_LEN..]);
        let slice = runs.slice_elems(cursor, count);
        if let Err(e) = dst.unpack_runs_wire(ep, &slice, &mut r) {
            return Err(McError::Transport(format!(
                "frame from rank {pg} failed to decode: {e}"
            )));
        }
        cursor += count;
        ep.recycle_buf(bytes);
    }
    Ok(())
}

fn recv_half<T, D>(ep: &mut Endpoint, sched: &Schedule, dst: &mut D)
where
    T: Copy + Wire,
    D: McObject<T>,
{
    if sched.recvs.is_empty() {
        return;
    }
    let t = move_tag(sched.seq());
    let mut comm = Comm::borrowed(ep, sched.group());
    for (peer, runs) in &sched.recvs {
        let stage = comm
            .ep()
            .span_begin(Phase::Stage, || format!("peer={peer} runs={}", runs.len()));
        let bytes = comm.recv(*peer, t);
        comm.ep().span_end(stage);
        let mut r = WireReader::new(&bytes);
        let count = usize::read(&mut r)
            .unwrap_or_else(|e| panic!("message from peer {peer} has no element count: {e}"));
        assert_eq!(
            count,
            runs.len(),
            "message from peer {peer} has wrong element count"
        );
        // Unpack wire bytes straight into library storage, then recycle
        // the buffer so steady-state loops allocate nothing.
        let commit = comm
            .ep()
            .span_begin(Phase::Commit, || format!("peer={peer}"));
        dst.unpack_runs_wire(comm.ep(), runs, &mut r)
            .unwrap_or_else(|e| panic!("message from peer {peer} failed to decode: {e}"));
        comm.ep().span_end(commit);
        comm.ep().recycle_buf(bytes);
    }
}

fn local_copies<T, S, D>(ep: &mut Endpoint, sched: &Schedule, src: &S, dst: &mut D)
where
    T: Copy,
    S: McObject<T>,
    D: McObject<T>,
{
    if sched.local_pairs.is_empty() {
        return;
    }
    ep.mark(|| format!("local_copy pairs={}", sched.local_pairs.len()));
    let (from, to) = (src.storage(), dst.storage_mut());
    for &(s, d, len) in sched.local_pairs.runs() {
        to[d..d + len].copy_from_slice(&from[s..s + len]);
    }
    // Direct copy: the source read and the destination write are charged
    // as one pack and one unpack, with no staging charge between them —
    // the local-copy advantage over Parti's intermediate buffer (§5.3).
    let bytes = sched.local_pairs.len() * std::mem::size_of::<T>();
    ep.charge_copy_bytes(bytes);
    ep.charge_copy_bytes(bytes);
}

/// Ablation baseline: the pre-optimization executor, kept for measuring
/// the run-compressed fast path against.  Produces byte-identical messages
/// and identical results, but walks every run element by element through
/// [`McObject::storage`], staging each message in a typed buffer, and
/// clones the communicator group per peer.  Benchmarks only — not part of
/// the Meta-Chaos API surface.
pub fn data_move_elementwise<T, S, D>(ep: &mut Endpoint, sched: &Schedule, src: &S, dst: &mut D)
where
    T: Copy + Wire,
    S: McObject<T>,
    D: McObject<T>,
{
    let elem = std::mem::size_of::<T>();
    let t = move_tag(sched.seq());
    for (peer, runs) in &sched.sends {
        let from = src.storage();
        let buf: Vec<T> = runs.iter().map(|a| from[a]).collect();
        ep.charge_copy_bytes(buf.len() * elem);
        let mut comm = Comm::new(ep, sched.group().clone());
        comm.send_t(*peer, t, &buf);
    }
    if !sched.local_pairs.is_empty() {
        let (from, to) = (src.storage(), dst.storage_mut());
        for (s, d) in sched.local_pairs.iter() {
            to[d] = from[s];
        }
        let bytes = sched.local_pairs.len() * elem;
        ep.charge_copy_bytes(bytes);
        ep.charge_copy_bytes(bytes);
    }
    for (peer, runs) in &sched.recvs {
        let data: Vec<T> = {
            let mut comm = Comm::new(ep, sched.group().clone());
            comm.recv_t(*peer, t)
        };
        assert_eq!(
            data.len(),
            runs.len(),
            "message from peer {peer} has wrong element count"
        );
        let to = dst.storage_mut();
        for (a, &v) in runs.iter().zip(&data) {
            to[a] = v;
        }
        ep.charge_copy_bytes(data.len() * elem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Side;
    use crate::build::{compute_schedule, BuildMethod};
    use crate::region::IndexSet;
    use crate::setof::SetOfRegions;
    use crate::testlib::BlockVec;
    use mcsim::group::Group;
    use mcsim::model::MachineModel;
    use mcsim::world::World;
    use mcsim::{SimError, Tag};

    const N: usize = 64;

    /// The source side of a `pa` → `pb` coupling of the indices `0..N`.
    fn src_sched(ep: &mut Endpoint, pa: &Group, pb: &Group, un: &Group, v: &BlockVec) -> Schedule {
        let sset = SetOfRegions::single(IndexSet::new((0..N).collect()));
        compute_schedule::<f64, BlockVec, BlockVec>(
            ep,
            un,
            pa,
            Some(Side::new(v, &sset)),
            pb,
            None,
            BuildMethod::Cooperation,
        )
        .unwrap()
    }

    /// The destination side of the same coupling, onto `dst_idx`.
    fn dst_sched(
        ep: &mut Endpoint,
        pa: &Group,
        pb: &Group,
        un: &Group,
        x: &BlockVec,
        dst_idx: Vec<usize>,
    ) -> Schedule {
        let dset = SetOfRegions::single(IndexSet::new(dst_idx));
        compute_schedule::<f64, BlockVec, BlockVec>(
            ep,
            un,
            pa,
            None,
            pb,
            Some(Side::new(x, &dset)),
            BuildMethod::Cooperation,
        )
        .unwrap()
    }

    /// All-or-nothing delivery: a sender that crashes after the
    /// transaction settled but before its data frames leaves every
    /// destination bit-identical to its pre-transfer state — including
    /// receivers that had already staged the healthy sender's halves —
    /// and the abort is visible as [`McError::PeerFailed`], not a hang.
    #[test]
    fn mid_transfer_crash_leaves_destinations_untouched() {
        const SENTINEL: f64 = -7.5;
        let report = World::with_model(4, MachineModel::sp2()).run_result(move |ep| {
            let (pa, pb, un) = Group::split_two(2, 2, 32);
            if pa.contains(ep.rank()) {
                let v = BlockVec::create(&pa, ep.rank(), N, |i| (i * 3 + 1) as f64);
                let sched = src_sched(ep, &pa, &pb, &un, &v);
                if ep.rank() == 1 {
                    // Settle the transaction (manifests + verdicts), then
                    // die in the window all-or-nothing delivery exists
                    // for: after "agreed", before any data.  The handshake
                    // pins the order: rank 0's full send already
                    // completed, so its halves are staged (or in flight
                    // and acked) at the receivers.
                    let te = next_xfer_epoch(ep, &sched);
                    settle(ep, &sched, &sched.sends, te, None).unwrap();
                    let _ = ep.recv(0, Tag::user(91));
                    panic!("boom: sender dies mid-transfer");
                }
                let r = data_move_send(ep, &sched, &v);
                ep.send(1, Tag::user(91), Vec::new());
                (r, Vec::new())
            } else {
                let mut x = BlockVec::create(&pb, ep.rank(), N, |_| SENTINEL);
                // Interleave the halves of the index space, so every
                // receiver pairs with BOTH senders: a receiver that staged
                // rank 0's half still has to roll it back when rank 1
                // dies.
                let dst_idx = (0..N).map(|p| p / 2 + (p % 2) * (N / 2)).collect();
                let sched = dst_sched(ep, &pa, &pb, &un, &x, dst_idx);
                assert_eq!(sched.recvs.len(), 2, "rank {} pairs with both", ep.rank());
                let r = data_move_recv(ep, &sched, &mut x);
                (r, x.data.clone())
            }
        });
        // The healthy sender finished; the crasher's own panic is captured.
        assert!(
            matches!(&report.outcomes[0], Ok((Ok(()), _))),
            "rank 0 failed"
        );
        assert!(matches!(
            &report.outcomes[1],
            Err(SimError::PeerFailed { rank: 1, .. })
        ));
        // Both receivers observed the failure as a value, with the
        // destination bit-identical to its pre-transfer state.
        for rank in [2, 3] {
            match &report.outcomes[rank] {
                Ok((Err(McError::PeerFailed { rank: 1, .. }), vals)) => {
                    assert_eq!(vals.len(), N / 2);
                    assert!(vals.iter().all(|&v| v == SENTINEL), "rank {rank}: {vals:?}");
                }
                other => panic!("rank {rank}: expected PeerFailed {{rank: 1}}, got {other:?}"),
            }
        }
        // The staged-then-rolled-back halves are visible in the counters.
        assert!(
            report.stats.session.frames_staged >= 2,
            "both receivers staged rank 0's half: {:?}",
            report.stats.session
        );
        assert!(
            report.stats.session.transfers_aborted >= 2,
            "both receivers aborted: {:?}",
            report.stats.session
        );
    }

    /// Idempotent retry: a data half orphaned by an attempt that died
    /// before commit is discarded by transfer-epoch dedup, and the retried
    /// transfer delivers exactly the fresh attempt's data.
    #[test]
    fn retried_transfer_dedups_replayed_halves() {
        let out = World::with_model(2, MachineModel::sp2()).run(move |ep| {
            let (pa, pb, un) = Group::split_two(1, 1, 32);
            if pa.contains(ep.rank()) {
                let v = BlockVec::create(&pa, ep.rank(), N, |i| (i * 3 + 1) as f64);
                let sched = src_sched(ep, &pa, &pb, &un, &v);
                // A half from an attempt that died before commit (no
                // manifest, no verdict — just the orphaned data frames on
                // the wire), carrying data the retry must not deliver...
                let orphan = BlockVec::create(&pa, ep.rank(), N, |_| -1.0);
                let te = next_xfer_epoch(ep, &sched);
                send_data_frames(ep, &sched, &orphan, te).unwrap();
                // ...then the retry, exactly as the application would
                // issue it.
                data_move_send(ep, &sched, &v).unwrap();
                Vec::new()
            } else {
                let mut x = BlockVec::create(&pb, ep.rank(), N, |_| 0.0);
                let sched = dst_sched(ep, &pa, &pb, &un, &x, (0..N).collect());
                data_move_recv(ep, &sched, &mut x).unwrap();
                x.data.clone()
            }
        });
        for (i, &v) in out.results[1].iter().enumerate() {
            assert_eq!(v, (i * 3 + 1) as f64, "after retry, x[{i}]");
        }
        // The orphaned half was dropped by dedup, the fresh one staged.
        assert_eq!(
            out.stats.session.stale_halves_dropped, 1,
            "replayed half must be discarded: {:?}",
            out.stats.session
        );
        assert!(out.stats.session.frames_staged >= 1);
    }
}
