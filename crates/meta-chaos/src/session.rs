//! Resumable coupled transfers: a per-port recovery session that drives a
//! sequence of data-move steps to completion across rank crashes and
//! supervisor restarts.
//!
//! The plain [`crate::datamove`] entry points are one-shot: a crash on
//! either side mid-transfer surfaces as an error and any progress is
//! lost.  A [`RecoverySession`] wraps the same pack/stage/commit
//! machinery in an exactly-once step protocol so that a crashed rank —
//! restarted by the world supervisor from its [`mcsim::CkptStore`]
//! checkpoint under a bumped incarnation — re-joins the exchange and the
//! pair replays only what was never committed.
//!
//! ## The protocol
//!
//! Everything for a pair flows on its schedule's move stream, in both
//! directions.  Data parts keep the usual `[epoch][last][count][bytes]`
//! header, but the session's transfer epoch is `(step + 1) << 32 |
//! attempt`, so the step number rides every frame; control frames start
//! with a marker below `datamove::DATA_FLOOR`, which no session data
//! frame can.  The receiver reads the stream with the transaction's own
//! staging function, `datamove::stage_half`; only its epoch policy
//! differs.
//!
//! - The **receiver** owns the truth: a per-pair committed-step vector
//!   `c`, checkpointed atomically with the destination object after
//!   every commit.  It stages whatever arrives: a half for the step it
//!   needs is committed; a half from an older step is a replay — dropped,
//!   counted as `parts_replayed`, and answered with the receiver's
//!   position so a resending sender catches up.  An attempt-epoch jump
//!   mid-half exposes the partial half of an attempt the sender
//!   abandoned; the partial is discarded and collection restarts, so the
//!   stream can never desynchronize.
//! - The **sender** keeps a per-pair confirmed floor `s`
//!   (checkpointed): each step it sends its half and waits for the
//!   receiver's position to pass the step, retrying — with a fresh
//!   attempt epoch — whenever the failure detector evicts the peer
//!   (restart under a new incarnation, or lease expiry).  Positions are
//!   monotone, so stale control frames are harmless by construction.
//! - [`RecoverySession::finish`] closes the session: senders post FIN,
//!   receivers keep serving replayed halves until every sender's FIN
//!   arrives.  Without this a finished rank would exit — and stop
//!   heartbeating — while a restarted peer still needs its answers.
//!
//! Steps and the close all run in rounds of one attempt driver: clear
//! the dead streams of the unfinished pairs, arm eviction, run the round,
//! disarm, and retry on a retryable error, at most eight rounds.
//!
//! The session requires a supervised world
//! ([`mcsim::World::with_supervisor`]): heartbeats drive the lease-based
//! failure detector, and [`McError::PeerEvicted`] is the retry signal
//! that a peer restarted under a new incarnation.  Do not mix plain
//! [`crate::data_move_send`]/[`crate::data_move_recv`] calls with a
//! session on the same schedule: the session owns the stream's epoch
//! space.

use std::any::Any;

use mcsim::prelude::Endpoint;
use mcsim::reliable::{self, StreamTag};
use mcsim::span::Phase;
use mcsim::wire::{Wire, WireReader};

use crate::adapter::McObject;
use crate::datamove::{
    commit_one_half, move_stream, next_xfer_epoch, post_ctrl, recv_side_guards, reject_stale,
    send_one_half, send_side_guards, stage_half, Epochs, Half, M_FIN, M_NAK, M_POS,
};
use crate::error::McError;
use crate::schedule::{AddrRuns, Schedule};

/// Rounds every session operation (a step, or the close) may take.
const ATTEMPTS: u32 = 8;

/// A resumable multi-step transfer session over one bound port.
///
/// Create one session per port per rank and drive it through numbered
/// steps ([`RecoverySession::send_step`] / [`RecoverySession::recv_step`]),
/// then close it with [`RecoverySession::finish`].  On a supervisor
/// restart the closure re-creates the session; checkpointed progress
/// (`{port}:src_s`, `{port}:dst_c`, plus the schedule and object
/// snapshots) brings it back to where the previous life stopped.
pub struct RecoverySession {
    port: String,
}

impl RecoverySession {
    /// A session for `port`.
    pub fn new(port: &str) -> Self {
        RecoverySession {
            port: port.to_string(),
        }
    }

    fn key(&self, what: &str) -> String {
        format!("{}:{what}", self.port)
    }

    /// Checkpoint the port's schedule so a restarted rank can restore it
    /// instead of re-running the (collective) build its peers will not
    /// repeat.
    pub fn checkpoint_schedule(&self, ep: &mut Endpoint, sched: &Schedule) {
        ep.ckpt_put_state(&self.key("sched"), Vec::new(), sched.clone());
    }

    /// The schedule checkpointed by a previous life, if any.
    pub fn restore_schedule(&self, ep: &Endpoint) -> Option<Schedule> {
        ep.ckpt_state::<Schedule>(&self.key("sched"))
    }

    /// Checkpoint an object.  [`RecoverySession::recv_step`]
    /// re-checkpoints the destination after every committed half; call
    /// this once after creating an object so a crash before the first
    /// commit restores a well-defined state (and so collectively built
    /// objects are never rebuilt by a lone restarted rank).
    pub fn checkpoint_object<O: Any + Clone + Send>(&self, ep: &mut Endpoint, obj: &O) {
        ep.ckpt_put_state(&self.key("obj"), Vec::new(), obj.clone());
    }

    /// The object snapshot checkpointed by a previous life, if any.
    pub fn restore_object<O: Any + Clone>(&self, ep: &Endpoint) -> Option<O> {
        ep.ckpt_state::<O>(&self.key("obj"))
    }

    /// Source-side step `k`: send every unconfirmed pair's half and wait
    /// for each receiver's position to pass the step, retrying across
    /// peer evictions until every pair confirms or the attempt budget
    /// runs out.  Misuse and stale schedules are refused like
    /// [`crate::data_move_send`] refuses them.
    pub fn send_step<T, S>(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        src: &S,
        k: u64,
    ) -> Result<(), McError>
    where
        T: Copy + Wire,
        S: McObject<T>,
    {
        send_side_guards(sched)?;
        if sched.sends.is_empty() {
            return Ok(());
        }
        reject_stale(ep, src.epoch(), sched.src_epoch())?;
        let key_s = self.key("src_s");
        let mut s = load_progress(ep, &key_s, sched.sends.len());
        drive(ep, sched, &sched.sends, &mut s, k + 1, |ep, s| {
            let r = send_round(ep, sched, src, k, s);
            store_progress(ep, &key_s, s);
            r
        })
        .map_err(|e| {
            e.unwrap_or_else(|| {
                McError::Transport(format!(
                    "send step {k} on port '{}' did not confirm within {ATTEMPTS} attempts",
                    self.port
                ))
            })
        })
    }

    /// Destination-side step `k`: stage every uncommitted pair's half
    /// and commit it into `dst`, checkpointing the object and the
    /// committed-step vector atomically, then answer with the new
    /// position.  Halves a previous life already committed never reach
    /// this step — `c` short-circuits them, and their replayed bytes
    /// are absorbed by the staging loop of whatever step runs next.
    /// Misuse and stale schedules are refused like
    /// [`crate::data_move_recv`] refuses them.
    pub fn recv_step<T, D>(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        dst: &mut D,
        k: u64,
    ) -> Result<(), McError>
    where
        T: Copy + Wire,
        D: McObject<T> + Clone + Send + 'static,
    {
        recv_side_guards(sched)?;
        if sched.recvs.is_empty() {
            return Ok(());
        }
        reject_stale(ep, dst.epoch(), sched.dst_epoch())?;
        let mut c = load_progress(ep, &self.key("dst_c"), sched.recvs.len());
        drive(ep, sched, &sched.recvs, &mut c, k + 1, |ep, c| {
            self.recv_round(ep, sched, dst, k, c)
        })
        .map_err(|e| {
            e.unwrap_or_else(|| {
                McError::Transport(format!(
                    "recv step {k} on port '{}' did not commit within {ATTEMPTS} attempts",
                    self.port
                ))
            })
        })
    }

    /// One receive round: stage, commit, checkpoint, and acknowledge
    /// every uncommitted pair, holding the first error so later pairs
    /// still make progress.
    fn recv_round<T, D>(
        &self,
        ep: &mut Endpoint,
        sched: &Schedule,
        dst: &mut D,
        k: u64,
        c: &mut [u64],
    ) -> Result<(), McError>
    where
        T: Copy + Wire,
        D: McObject<T> + Clone + Send + 'static,
    {
        let group = sched.group();
        let st = move_stream(sched);
        let mut first_err: Option<McError> = None;
        for (i, (peer, runs)) in sched.recvs.iter().enumerate() {
            if c[i] > k {
                continue;
            }
            let pg = group.global(*peer);
            match stage_session_half(ep, sched, pg, runs, k, c[i]) {
                Ok(parts) => {
                    let span = ep.span_begin(Phase::Commit, || {
                        format!("seq={} peer={pg} step={k}", sched.seq())
                    });
                    let cr = commit_one_half(ep, dst, pg, runs, parts);
                    ep.span_end(span);
                    match cr {
                        Ok(()) => {
                            ep.record_transfer_committed();
                            // No communication happens between here
                            // and the position post, so the object,
                            // the vector, and the commit are atomic
                            // with respect to scripted crashes.
                            self.checkpoint_object(ep, dst);
                            c[i] = k + 1;
                            store_progress(ep, &self.key("dst_c"), c);
                            if let Err(e) = post_ctrl(ep, pg, st, M_POS, k + 1) {
                                hold(&mut first_err, e);
                            }
                        }
                        Err(e) => {
                            let _ = post_ctrl(ep, pg, st, M_NAK, k);
                            hold(&mut first_err, e);
                        }
                    }
                }
                Err(e) => {
                    if retryable(&e) {
                        let _ = post_ctrl(ep, pg, st, M_NAK, k);
                    }
                    hold(&mut first_err, e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Close the session after `steps` steps.  Senders post FIN to every
    /// pair; receivers keep serving replayed halves until every pair's
    /// FIN arrives, so a restarted peer always finds someone to answer.
    /// If the peer is gone for good after the retry budget — and this
    /// side's own obligations are met — the session closes anyway: the
    /// durable state is complete.
    pub fn finish(
        &mut self,
        ep: &mut Endpoint,
        sched: &Schedule,
        steps: u64,
    ) -> Result<(), McError> {
        let sending = !sched.sends.is_empty();
        let pairs = if sending { &sched.sends } else { &sched.recvs };
        if pairs.is_empty() {
            return Ok(());
        }
        let group = sched.group();
        let st = move_stream(sched);
        let esz = sched.elem_size() as usize;
        let c = if sending {
            Vec::new()
        } else {
            load_progress(ep, &self.key("dst_c"), pairs.len())
        };
        let mut closed = vec![0u64; pairs.len()];
        let r = drive(ep, sched, pairs, &mut closed, 1, |ep, closed| {
            let mut first_err: Option<McError> = None;
            for (i, (peer, runs)) in pairs.iter().enumerate() {
                if closed[i] > 0 {
                    continue;
                }
                let pg = group.global(*peer);
                let r = if sending {
                    post_ctrl(ep, pg, st, M_FIN, steps)
                } else {
                    stage_half(ep, st, esz, pg, runs, Epochs::Closing { pos: c[i] }).map(drop)
                };
                match r {
                    Ok(()) => closed[i] = 1,
                    Err(e) if retryable(&e) => hold(&mut first_err, e),
                    Err(e) => return Err(e),
                }
            }
            first_err.map_or(Ok(()), Err)
        });
        let last_err = match r {
            Ok(()) => return Ok(()),
            Err(Some(e)) if !retryable(&e) => return Err(e),
            Err(last_err) => last_err,
        };
        let why = || last_err.as_ref().map(|e| e.to_string()).unwrap_or_default();
        if sending {
            // Every step is confirmed committed; an unreachable receiver
            // after that many rounds has exited (or is beyond recovery)
            // and owes us nothing.
            ep.mark(|| {
                format!(
                    "session '{}' finish: FIN undeliverable ({})",
                    self.port,
                    why()
                )
            });
            Ok(())
        } else if c.iter().all(|&v| v >= steps) {
            // Everything we owe is committed and checkpointed; a sender
            // that still has not said FIN after that many rounds is gone.
            ep.mark(|| {
                format!(
                    "session '{}' finish: FIN never arrived ({})",
                    self.port,
                    why()
                )
            });
            Ok(())
        } else {
            Err(last_err.unwrap_or_else(|| {
                McError::Transport(format!(
                    "session '{}' finish called with uncommitted steps",
                    self.port
                ))
            }))
        }
    }
}

/// The attempt driver of every session operation.  Pair `i` of `pairs`
/// is finished once `at[i] >= done`.  Each round clears the dead streams
/// of the unfinished pairs, arms eviction, runs `round`, and disarms;
/// rounds repeat until every pair is finished, a round fails with an
/// error that is not [`retryable`] (returned at once), or [`ATTEMPTS`]
/// rounds have run (the last retryable error is returned, `None` if
/// every round succeeded without finishing).
fn drive(
    ep: &mut Endpoint,
    sched: &Schedule,
    pairs: &[(usize, AddrRuns)],
    at: &mut [u64],
    done: u64,
    mut round: impl FnMut(&mut Endpoint, &mut [u64]) -> Result<(), McError>,
) -> Result<(), Option<McError>> {
    let mut last_err: Option<McError> = None;
    for _ in 0..ATTEMPTS {
        if at.iter().all(|&v| v >= done) {
            return Ok(());
        }
        for (i, (peer, _)) in pairs.iter().enumerate() {
            if at[i] < done {
                ep.clear_dead_streams(sched.group().global(*peer));
            }
        }
        ep.arm_eviction();
        let r = round(ep, at);
        ep.disarm_eviction();
        match r {
            Ok(()) if at.iter().all(|&v| v >= done) => return Ok(()),
            Ok(()) => {}
            Err(e) if retryable(&e) => last_err = Some(e),
            Err(e) => return Err(Some(e)),
        }
    }
    Err(last_err)
}

/// One send round: post every unconfirmed pair's half *before* waiting
/// on any position, so no receiver's progress waits on another pair's
/// service order, then await each posted pair's confirmation.  The first
/// error is held so later pairs still make progress within the round.
fn send_round<T, S>(
    ep: &mut Endpoint,
    sched: &Schedule,
    src: &S,
    k: u64,
    s: &mut [u64],
) -> Result<(), McError>
where
    T: Copy + Wire,
    S: McObject<T>,
{
    let group = sched.group();
    let st = move_stream(sched);
    let te = step_te(ep, k, sched);
    let mut first_err: Option<McError> = None;
    let mut sent = vec![false; sched.sends.len()];
    for (i, (peer, runs)) in sched.sends.iter().enumerate() {
        if s[i] > k {
            continue;
        }
        match send_one_half(ep, sched, src, te, group.global(*peer), runs) {
            Ok(()) => sent[i] = true,
            Err(e) => hold(&mut first_err, e),
        }
    }
    for (i, (peer, _)) in sched.sends.iter().enumerate() {
        if s[i] > k || !sent[i] {
            continue;
        }
        let pg = group.global(*peer);
        let span = ep.span_begin(Phase::Manifest, || {
            format!("confirm seq={} peer={pg} step={k}", sched.seq())
        });
        let rr = await_pos(ep, pg, st, k, &mut s[i]);
        ep.span_end(span);
        if let Err(e) = rr {
            hold(&mut first_err, e);
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// Transfer epoch for session data frames: the step number (plus one, so
/// step 0 outranks every control marker) in the high half, a monotone
/// per-attempt counter in the low half.  The step part lets a receiver
/// discard a previous step's in-flight duplicates without a manifest;
/// the attempt part survives a supervisor restart because the epoch
/// counter lives in the rank's endpoint scratch, which the supervisor
/// carries across the respawn.
fn step_te(ep: &mut Endpoint, k: u64, sched: &Schedule) -> u64 {
    ((k + 1) << 32) | (next_xfer_epoch(ep, sched) & 0xFFFF_FFFF)
}

/// Errors worth another attempt: the peer may be back under a new
/// incarnation (evicted), may still restart (failed, timed out), or the
/// streams carried frames from an abandoned attempt (transport).
fn retryable(e: &McError) -> bool {
    matches!(
        e,
        McError::PeerEvicted { .. }
            | McError::PeerTimeout { .. }
            | McError::PeerFailed { .. }
            | McError::Transport(_)
    )
}

fn hold(slot: &mut Option<McError>, e: McError) {
    if slot.is_none() {
        *slot = Some(e);
    }
}

fn load_progress(ep: &Endpoint, key: &str, n: usize) -> Vec<u64> {
    ep.ckpt_state::<Vec<u64>>(key)
        .filter(|v| v.len() == n)
        .unwrap_or_else(|| vec![0; n])
}

fn store_progress(ep: &mut Endpoint, key: &str, v: &[u64]) {
    ep.ckpt_put_state(key, Vec::new(), v.to_vec());
}

/// Sender-side wait: consume the receiver's position reports until the
/// pair's floor passes `k`.  A NAK for the step means the receiver
/// failed to stage this attempt's half — surface a retryable error so
/// the attempt is re-run.  Positions are monotone, so reports from
/// abandoned attempts can never mislead.
fn await_pos(
    ep: &mut Endpoint,
    pg: usize,
    st: StreamTag,
    k: u64,
    floor: &mut u64,
) -> Result<(), McError> {
    while *floor <= k {
        let bytes = reliable::reliable_recv(ep, pg, st)?;
        let mut r = WireReader::new(&bytes);
        let bad = |e| McError::Transport(format!("session frame from rank {pg}: {e}"));
        let marker = u64::read(&mut r).map_err(bad);
        let value = u64::read(&mut r).map_err(bad);
        ep.recycle_buf(bytes);
        match (marker?, value?) {
            (M_POS, v) => *floor = (*floor).max(v),
            (M_NAK, step) if step >= k => {
                return Err(McError::Transport(format!(
                    "receiver rank {pg} could not stage step {step}"
                )));
            }
            (M_NAK, _) => {}
            (m, _) => {
                return Err(McError::Transport(format!(
                    "unexpected session frame (marker {m}) from rank {pg} on the return path"
                )));
            }
        }
    }
    Ok(())
}

/// Collect one pair's half for step `k` (see [`Epochs::Step`]), inside
/// a `Stage` span; `pos` is the position replays are answered with.
fn stage_session_half(
    ep: &mut Endpoint,
    sched: &Schedule,
    pg: usize,
    runs: &AddrRuns,
    k: u64,
    pos: u64,
) -> Result<Half, McError> {
    let span = ep.span_begin(Phase::Stage, || {
        format!("seq={} peer={pg} step={k}", sched.seq())
    });
    let esz = sched.elem_size() as usize;
    let r = stage_half(
        ep,
        move_stream(sched),
        esz,
        pg,
        runs,
        Epochs::Step { k, pos },
    );
    ep.span_end(span);
    r
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

    /// A same-program schedule moves its data through local pairs, which
    /// no session step carries: both steps refuse it, as the transaction
    /// does, instead of returning `Ok` without copying anything.
    #[test]
    fn steps_refuse_same_program_schedules() {
        let out = World::with_model(1, MachineModel::zero()).run(|ep| {
            let g = Group::world(1);
            let set = SetOfRegions::single(IndexSet::new((0..8).collect()));
            let src = BlockVec::create(&g, 0, 8, |i| i as f64);
            let mut dst = BlockVec::create(&g, 0, 8, |_| -1.0);
            let sched = compute_schedule(
                ep,
                &g,
                &g,
                Some(Side::new(&src, &set)),
                &g,
                Some(Side::new(&dst, &set)),
                BuildMethod::Cooperation,
            )
            .unwrap();
            let mut ses = RecoverySession::new("local");
            let recv = ses.recv_step(ep, &sched, &mut dst, 0);
            let send = ses.send_step(ep, &sched, &src, 0);
            (recv, send, dst.data)
        });
        let (recv, send, dst) = &out.results[0];
        for r in [recv, send] {
            assert!(
                matches!(r, Err(McError::LocalPairsInCrossProgramMove { .. })),
                "{r:?}"
            );
        }
        assert!(dst.iter().all(|&v| v == -1.0), "{dst:?}");
    }

    /// A step on a schedule built against another distribution is
    /// refused before any communication, and counted like the
    /// transaction counts its own rejections.
    #[test]
    fn stale_steps_are_refused_and_counted() {
        let out = World::with_model(2, MachineModel::zero()).run(|ep| {
            let (pa, pb, un) = Group::split_two(1, 1, 32);
            let set = SetOfRegions::single(IndexSet::new((0..8).collect()));
            let mut ses = RecoverySession::new("stale");
            if pa.contains(ep.rank()) {
                let src = BlockVec::create(&pa, ep.rank(), 8, |i| i as f64);
                let side = Some(Side::new(&src, &set));
                let sched = compute_schedule::<f64, BlockVec, BlockVec>(
                    ep,
                    &un,
                    &pa,
                    side,
                    &pb,
                    None,
                    BuildMethod::Cooperation,
                )
                .unwrap();
                let (tag, size) = (sched.elem_tag(), sched.elem_size());
                let stale = sched.with_integrity(5, 0, tag, size);
                ses.send_step(ep, &stale, &src, 0)
            } else {
                let mut dst = BlockVec::create(&pb, ep.rank(), 8, |_| -1.0);
                let side = Some(Side::new(&dst, &set));
                let sched = compute_schedule::<f64, BlockVec, BlockVec>(
                    ep,
                    &un,
                    &pa,
                    None,
                    &pb,
                    side,
                    BuildMethod::Cooperation,
                )
                .unwrap();
                let (tag, size) = (sched.elem_tag(), sched.elem_size());
                let stale = sched.with_integrity(0, 5, tag, size);
                ses.recv_step(ep, &stale, &mut dst, 0)
            }
        });
        for r in &out.results {
            assert_eq!(
                *r,
                Err(McError::StaleSchedule {
                    object_epoch: 0,
                    schedule_epoch: 5
                })
            );
        }
        assert_eq!(out.stats.session.stale_schedules, 2);
    }
}
