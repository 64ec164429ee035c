//! World construction: run an SPMD closure on every rank.
//!
//! Every rank is a stackful green task hosted on the caller's thread and
//! resumed in deterministic `(virtual_time, rank)` order by the
//! discrete-event core in [`crate::sched`].  One OS thread scales to
//! 1024+ ranks, and the same program always produces the same schedule.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::endpoint::Endpoint;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::model::{MachineModel, NetState, Topology};
use crate::recovery::{CkptStore, RecoveryConfig};
use crate::reliable::ReliableConfig;
use crate::sched::{Sched, TaskBody};
use crate::stats::{NetStats, StatsSnapshot};
use crate::trace::TraceEvent;

/// How ranks are hosted.  There is one runner: every rank is a green task
/// on the caller's thread (`workers` is always 1), resumed in
/// deterministic `(virtual_time, rank)` order.  [`World::runner`] reports
/// it so harnesses can record the configuration they measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// Cooperative scheduling of green tasks on the caller's thread;
    /// `workers` is always 1.
    Coop { workers: usize },
}

/// A simulated machine with a fixed number of ranks and a cost model.
#[derive(Debug, Clone)]
pub struct World {
    size: usize,
    model: MachineModel,
    faults: Option<FaultPlan>,
    trace: bool,
    rel_cfg: ReliableConfig,
    deadline: Option<f64>,
    recovery: RecoveryConfig,
    /// Restart budget per rank when a supervisor is attached.
    supervisor: Option<u32>,
    /// World-level checkpoint store; survives rank crashes, and clones of
    /// this world share it (it is the durable half of recovery).
    ckpt: CkptStore,
    stack_bytes: usize,
    topology: Topology,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values of the SPMD closure, indexed by rank.
    pub results: Vec<R>,
    /// Final virtual clock of each rank, in seconds.
    pub clocks: Vec<f64>,
    /// Simulated elapsed time of the whole run: `max(clocks)`.
    pub elapsed: f64,
    /// Aggregate message traffic.
    pub stats: NetStats,
    /// Per-rank event timelines when the world was built with
    /// [`World::with_trace`]; empty vectors otherwise.
    pub traces: Vec<Vec<TraceEvent>>,
    /// Total virtual seconds messages spent queued behind busy links —
    /// always `0.0` on the contention-free [`Topology::Crossbar`].
    pub contended_secs: f64,
}

/// What [`World::run_result`] produces: per-rank outcomes where a rank
/// that panicked yields `Err` instead of taking the whole run down.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank closure results; a panicked rank becomes
    /// [`SimError::PeerFailed`] carrying its own rank and panic message.
    pub outcomes: Vec<Result<R, SimError>>,
    /// Final virtual clock of each rank, in seconds.
    pub clocks: Vec<f64>,
    /// Simulated elapsed time of the whole run: `max(clocks)`.
    pub elapsed: f64,
    /// Aggregate message traffic.
    pub stats: NetStats,
    /// Per-rank event timelines when the world was built with
    /// [`World::with_trace`]; empty vectors otherwise.  Panicked ranks
    /// contribute whatever they recorded before dying.
    pub traces: Vec<Vec<TraceEvent>>,
    /// Total virtual seconds messages spent queued behind busy links —
    /// always `0.0` on the contention-free [`Topology::Crossbar`].
    pub contended_secs: f64,
}

impl<R> RunOutput<R> {
    /// Named metrics (counters + virtual-time histograms) for this run.
    pub fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::from_run(&self.stats, &self.traces)
    }
}

impl<R> RunReport<R> {
    /// Named metrics (counters + virtual-time histograms) for this run.
    pub fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::from_run(&self.stats, &self.traces)
    }
}

enum RankOutcome<R> {
    Done(R, f64, StatsSnapshot, Vec<TraceEvent>),
    Panicked(
        Box<dyn std::any::Any + Send>,
        String,
        f64,
        StatsSnapshot,
        Vec<TraceEvent>,
    ),
}

impl World {
    /// A world of `size` ranks with the default (SP2) cost model.
    pub fn new(size: usize) -> Self {
        World::with_model(size, MachineModel::default())
    }

    /// A world of `size` ranks with an explicit cost model.
    pub fn with_model(size: usize, model: MachineModel) -> Self {
        assert!(size > 0, "world must have at least one rank");
        World {
            size,
            model,
            faults: None,
            trace: false,
            rel_cfg: ReliableConfig::default(),
            deadline: None,
            recovery: RecoveryConfig::default(),
            supervisor: None,
            ckpt: CkptStore::default(),
            stack_bytes: crate::sched::COOP_STACK_BYTES,
            topology: Topology::Crossbar,
        }
    }

    /// Select the interconnect topology (default [`Topology::Crossbar`]).
    ///
    /// Non-crossbar topologies route every message over shared links with
    /// per-link serialization and contention queuing (see
    /// [`crate::model::Topology`]); the total order over rank execution
    /// makes the shared link state deterministic.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        assert!(
            topology.fits(self.size),
            "topology {topology:?} cannot seat {} ranks",
            self.size
        );
        self.topology = topology;
        self
    }

    /// The interconnect topology in effect.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Per-task stack size in bytes (virtual memory; untouched pages stay
    /// non-resident).  Raise this if a deep rank closure overflows its
    /// stack: the overflow faults on the guard page below it.
    pub fn with_stack_bytes(mut self, bytes: usize) -> Self {
        self.stack_bytes = bytes;
        self
    }

    /// The runner in effect: always `Runner::Coop { workers: 1 }`.
    pub fn runner(&self) -> Runner {
        Runner::Coop { workers: 1 }
    }

    /// Override the recovery configuration: when `heartbeats` is set,
    /// the lease-based failure detector every endpoint runs.  The default
    /// keeps heartbeats off, so behavior is unchanged unless a caller
    /// opts in.
    pub fn with_recovery_config(mut self, cfg: RecoveryConfig) -> Self {
        assert!(cfg.lease_misses > 0, "lease budget must be positive");
        self.recovery = cfg;
        self
    }

    /// Attach a supervisor: a rank that dies to a *scripted* crash (fault
    /// plan or [`crate::endpoint::Endpoint::arm_crash`]) is respawned in
    /// place up to `max_restarts` times per rank, under a bumped
    /// incarnation, with its endpoint reset for recovery and the
    /// checkpoint store intact.  Panics that are not scripted crashes
    /// (real bugs) still poison the world.
    ///
    /// Arms heartbeats as a side effect: a supervisor restart sends no
    /// poison, so lease eviction is the only thing that wakes survivors
    /// blocked on the crashed rank.  Call
    /// [`World::with_recovery_config`] *after* this to tune (or disarm)
    /// the detector.
    pub fn with_supervisor(mut self, max_restarts: u32) -> Self {
        self.supervisor = Some(max_restarts);
        self.recovery.heartbeats = true;
        self
    }

    /// Arm a virtual-clock deadline (seconds) for the whole run: any rank
    /// whose clock passes it — or that blocks in a receive with nothing
    /// arriving while it is armed — fails with
    /// [`SimError::DeadlineExceeded`] instead of hanging.  This is the
    /// fuzz harness's no-hang oracle; production-style runs leave it off
    /// and rely on the reliable layer's retry budget.
    pub fn with_deadline(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "deadline must be positive");
        self.deadline = Some(secs);
        self
    }

    /// Override the reliable-transport configuration (window size,
    /// chunking, retry policy) every endpoint in this world runs with.
    /// `ReliableConfig::stop_and_wait()` gives the one-frame-in-flight
    /// ablation the benches compare against.
    pub fn with_reliable_config(mut self, cfg: ReliableConfig) -> Self {
        self.rel_cfg = cfg;
        self
    }

    /// Attach a deterministic [`FaultPlan`]: every rank's endpoint injects
    /// the scripted drops/dups/corruptions/delays on its sends, and
    /// scripted crashes fire at their virtual times.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Record full per-rank event timelines for the run: every rank's
    /// endpoint starts with tracing enabled, and whatever it recorded is
    /// collected into [`RunOutput::traces`] / [`RunReport::traces`]
    /// (snapshot taken when the rank's closure returns, alongside its
    /// stats).  A closure that calls `take_trace` itself simply leaves
    /// less for the sink.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model in effect.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The recovery configuration in effect.
    pub fn recovery_config(&self) -> &RecoveryConfig {
        &self.recovery
    }

    /// The world-level checkpoint store (shared with every endpoint).
    pub fn checkpoints(&self) -> &CkptStore {
        &self.ckpt
    }

    /// Run the closure everywhere and keep every rank answering
    /// reliable-protocol traffic until the last rank is done — a rank
    /// still flushing a reliable stream must never be orphaned by a peer
    /// that already returned.  Returns the per-rank outcomes and the
    /// contention total.
    fn execute<F, R>(&self, f: F) -> (Vec<RankOutcome<R>>, f64)
    where
        F: Fn(&mut Endpoint) -> R,
    {
        let net = (self.topology != Topology::Crossbar).then(|| NetState::new(self.topology));
        let sched = Rc::new(Sched::new(self.size, net));
        let mut endpoints: Vec<Endpoint> = (0..self.size)
            .map(|rank| {
                let mut ep = Endpoint::new(
                    rank,
                    self.size,
                    sched.clone(),
                    self.model,
                    self.faults.as_ref(),
                    self.rel_cfg,
                    self.deadline,
                    self.recovery,
                    self.supervisor,
                    self.ckpt.clone(),
                );
                if self.trace {
                    ep.enable_trace();
                }
                ep
            })
            .collect();
        let mut outcomes: Vec<Option<RankOutcome<R>>> = (0..self.size).map(|_| None).collect();

        let f = &f;
        let bodies: Vec<TaskBody> = endpoints
            .iter_mut()
            .zip(outcomes.iter_mut())
            .map(|(ep, out)| {
                let body = Box::new(move || {
                    // Supervisor loop: a scripted crash under a restart
                    // budget respawns the closure on this same task, with
                    // the endpoint reset for recovery.
                    let mut result = catch_unwind(AssertUnwindSafe(|| f(ep)));
                    while let Err(e) = &result {
                        if !ep.try_restart(&panic_message(e.as_ref())) {
                            break;
                        }
                        result = catch_unwind(AssertUnwindSafe(|| f(ep)));
                    }
                    let reason = match &result {
                        Ok(_) => None,
                        Err(e) => {
                            let reason = panic_message(e.as_ref());
                            ep.poison_all(&reason);
                            Some(reason)
                        }
                    };
                    // Snapshot before the service phase, so late protocol
                    // traffic never perturbs the reported tail counters.
                    let clock = ep.clock();
                    let stats = ep.stats_snapshot();
                    let trace = ep.take_trace();
                    *out = Some(match result {
                        Ok(r) => RankOutcome::Done(r, clock, stats, trace),
                        Err(e) => RankOutcome::Panicked(
                            e,
                            reason.unwrap_or_default(),
                            clock,
                            stats,
                            trace,
                        ),
                    });
                    ep.serve_until_shutdown();
                });
                let body: Box<dyn FnOnce() + '_> = body;
                // SAFETY: erases the borrow lifetime only.  `Sched::run`
                // drives every task to completion before it returns, so
                // the borrows of `endpoints`, `outcomes` and `f` inside
                // cannot outlive their owners.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + '_>, TaskBody>(body) }
            })
            .collect();

        if let Some(e) = sched.run(self.stack_bytes, bodies) {
            // A panic escaped a task harness (bug in the runner itself):
            // re-raise rather than lose it.
            resume_unwind(e);
        }
        drop(endpoints);

        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("every task wrote its outcome"))
            .collect();
        (outcomes, sched.contended_secs())
    }

    /// Run `f` on every rank and collect the results.  Every rank is a
    /// green task on the caller's thread; ranks interleave only at
    /// communication waits, in virtual-clock order.
    ///
    /// If any rank panics, the panic is re-raised on the caller's thread
    /// after every rank has finished; peers blocked in `recv` are woken
    /// by a poison message so the run always terminates.  Use
    /// [`World::run_result`] to observe panics as values instead.
    pub fn run<F, R>(&self, f: F) -> RunOutput<R>
    where
        F: Fn(&mut Endpoint) -> R,
    {
        let (outcomes, contended_secs) = self.execute(f);

        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        let mut results = Vec::with_capacity(self.size);
        let mut clocks = Vec::with_capacity(self.size);
        let mut locals = Vec::with_capacity(self.size);
        let mut traces = Vec::with_capacity(self.size);
        for o in outcomes {
            match o {
                RankOutcome::Done(r, c, st, tr) => {
                    results.push(r);
                    clocks.push(c);
                    locals.push(st);
                    traces.push(tr);
                }
                RankOutcome::Panicked(e, reason, _, _, _) => {
                    // Prefer the original failure over cascade panics that
                    // ranks raise when they see a peer's poison.
                    let is_cascade = reason.contains(CASCADE_MARKER);
                    match (&panic_payload, is_cascade) {
                        (None, _) => panic_payload = Some(e),
                        (Some(prev), false)
                            if panic_message(prev.as_ref()).contains(CASCADE_MARKER) =>
                        {
                            panic_payload = Some(e)
                        }
                        _ => {}
                    }
                }
            }
        }

        if let Some(p) = panic_payload {
            resume_unwind(p);
        }

        let elapsed = clocks.iter().copied().fold(0.0f64, f64::max);
        RunOutput {
            results,
            clocks,
            elapsed,
            stats: NetStats::from_locals(locals),
            traces,
            contended_secs,
        }
    }

    /// Run `f` on every rank, turning rank panics into per-rank `Err`
    /// outcomes instead of re-panicking — the recoverable counterpart of
    /// [`World::run`] for tests and callers that must observe failures.
    pub fn run_result<F, R>(&self, f: F) -> RunReport<R>
    where
        F: Fn(&mut Endpoint) -> R,
    {
        let (outcomes, contended_secs) = self.execute(f);

        let mut report = Vec::with_capacity(self.size);
        let mut clocks = Vec::with_capacity(self.size);
        let mut locals = Vec::with_capacity(self.size);
        let mut traces = Vec::with_capacity(self.size);
        for (rank, o) in outcomes.into_iter().enumerate() {
            match o {
                RankOutcome::Done(r, c, st, tr) => {
                    report.push(Ok(r));
                    clocks.push(c);
                    locals.push(st);
                    traces.push(tr);
                }
                RankOutcome::Panicked(_, reason, c, st, tr) => {
                    report.push(Err(SimError::PeerFailed { rank, reason }));
                    clocks.push(c);
                    locals.push(st);
                    traces.push(tr);
                }
            }
        }
        let elapsed = clocks.iter().copied().fold(0.0f64, f64::max);
        RunReport {
            outcomes: report,
            clocks,
            elapsed,
            stats: NetStats::from_locals(locals),
            traces,
            contended_secs,
        }
    }
}

/// Substring identifying a panic caused by observing a peer's failure
/// rather than an original fault.  Kept in sync with the message raised in
/// [`crate::endpoint::Endpoint::recv`].
pub(crate) const CASCADE_MARKER: &str = "peer rank";

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;

    #[test]
    fn run_returns_results_in_rank_order() {
        let world = World::with_model(5, MachineModel::zero());
        let out = world.run(|ep| ep.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30, 40]);
        assert_eq!(out.clocks.len(), 5);
        assert_eq!(out.elapsed, 0.0);
    }

    #[test]
    fn elapsed_is_max_clock() {
        let world = World::with_model(3, MachineModel::zero());
        let out = world.run(|ep| {
            ep.charge(ep.rank() as f64);
        });
        assert_eq!(out.elapsed, 2.0);
        assert_eq!(out.clocks, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn panics_propagate() {
        let world = World::with_model(2, MachineModel::zero());
        world.run(|ep| {
            if ep.rank() == 1 {
                panic!("deliberate");
            }
            // Rank 0 blocks on a message that will never come; the poison
            // from rank 1 must wake it rather than deadlock the test.
            let _ = ep.recv(1, Tag::user(0));
        });
    }

    #[test]
    fn run_result_reports_panics_without_propagating() {
        let world = World::with_model(2, MachineModel::zero());
        let report = world.run_result(|ep| {
            if ep.rank() == 1 {
                panic!("deliberate failure");
            }
            ep.recv_result(1, Tag::user(0)).map(|_| ())
        });
        // Rank 1's panic is an Err outcome, not a re-panic.
        match &report.outcomes[1] {
            Err(SimError::PeerFailed { rank, reason }) => {
                assert_eq!(*rank, 1);
                assert!(reason.contains("deliberate failure"));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        // Rank 0 observed the poison as a recoverable error.
        match &report.outcomes[0] {
            Ok(Err(SimError::PeerFailed { rank, .. })) => assert_eq!(*rank, 1),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn single_rank_world() {
        let world = World::new(1);
        let out = world.run(|ep| ep.world_size());
        assert_eq!(out.results, vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = World::new(0);
    }
}
