//! Measurement plumbing shared by every workload.
//!
//! Every rank of a world carries a [`Cx`].  All ranks call [`Cx::op`] in
//! lockstep; it brackets the call with world-wide `sync_clocks`, so the
//! virtual duration is the max over ranks and the host duration, read by
//! rank 0 on the one OS thread that runs every rank, covers the whole
//! world's work on that call.  Nothing here is a residual: each number is
//! read around its own call.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use mcsim::group::{Comm, Group};
use mcsim::prelude::Endpoint;
use mcsim::stats::StatsSnapshot;
use mcsim::trace::TraceEvent;
use mcsim::{analyze, Tag};

/// Context of the group the harness synchronizes and barriers on: no
/// workload uses it, so its collective traffic can be told apart from the
/// program's in a trace.
const HARNESS_CTX: u32 = 0x0500;

/// One span of the benchmark's own trace: a call into a layer, timed on
/// both clocks.  Host times are seconds since the process origin; virtual
/// times are the simulated clock of the world the span ran in.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub host: (f64, f64),
    pub virt: (f64, f64),
}

/// Counters read from `Endpoint::stats_snapshot` around a call, summed
/// over ranks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub msgs: u64,
    pub bytes: u64,
    pub retransmits: u64,
    pub nacks_sent: u64,
    pub timeouts: u64,
    pub window_stalls: u64,
    pub dup_frames_dropped: u64,
    pub frames_staged: u64,
    pub transfers_committed: u64,
    pub transfers_aborted: u64,
}

impl Counts {
    fn from_delta(d: &StatsSnapshot) -> Self {
        Counts {
            msgs: d.total_msgs(),
            bytes: d.total_bytes(),
            retransmits: d.faults.retransmits,
            nacks_sent: d.faults.nacks_sent,
            timeouts: d.faults.timeouts,
            window_stalls: d.faults.window_stalls,
            dup_frames_dropped: d.faults.dup_frames_dropped,
            frames_staged: d.session.frames_staged,
            transfers_committed: d.session.transfers_committed,
            transfers_aborted: d.session.transfers_aborted,
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.msgs += o.msgs;
        self.bytes += o.bytes;
        self.retransmits += o.retransmits;
        self.nacks_sent += o.nacks_sent;
        self.timeouts += o.timeouts;
        self.window_stalls += o.window_stalls;
        self.dup_frames_dropped += o.dup_frames_dropped;
        self.frames_staged += o.frames_staged;
        self.transfers_committed += o.transfers_committed;
        self.transfers_aborted += o.transfers_aborted;
    }
}

/// What one rank measured in one world.  Host numbers and spans are only
/// filled on rank 0; counters and failures are per rank and merged.
#[derive(Debug, Default)]
pub struct RankOut {
    pub spans: Vec<Span>,
    /// Host seconds per op name (rank 0).
    pub host: BTreeMap<&'static str, f64>,
    /// Virtual seconds per op name.
    pub virt: BTreeMap<&'static str, f64>,
    /// Counters per op name, this rank's share.
    pub counts: BTreeMap<&'static str, Counts>,
    /// `(host s, virtual s)` of every move (rank 0).
    pub moves: Vec<(f64, f64)>,
    /// Probe values by metric name (rank 0).
    pub probes: BTreeMap<&'static str, f64>,
    /// Host seconds from `World::run` entry to the first barrier exit.
    pub spawn_s: f64,
    /// Host seconds from world construction to the first timed call (rank 0).
    pub setup_s: f64,
    pub ops: u64,
    pub failed: BTreeSet<u64>,
    /// Failure messages of this rank.
    pub errors: Vec<String>,
}

/// Per-rank measurement context.
pub struct Cx {
    world: Group,
    origin: Instant,
    setup_from: Instant,
    rank0: bool,
    rank: usize,
    stack: Vec<usize>,
    first_op_seen: bool,
    last_virt: f64,
    pub out: RankOut,
}

/// Ops and spans whose names start with this are probes, outside the
/// timed section.
pub const PROBE_PREFIX: &str = "probe.";
/// The span enclosing a coupled world's timed ops.
pub const TIMED_SPAN: &str = "timed";

impl Cx {
    /// Start measuring on this rank.  `run_entry` is taken just before
    /// `World::run`, `setup_from` before the world was constructed.  The
    /// world barrier here is the first one of the run; every rank reads the
    /// spawn time at its exit and the world keeps the earliest, since the
    /// ranks that leave it first run on before the others resume.
    pub fn new(
        ep: &mut Endpoint,
        origin: Instant,
        setup_from: Instant,
        run_entry: Instant,
    ) -> Self {
        let world = Group::new((0..ep.world_size()).collect(), HARNESS_CTX);
        Comm::borrowed(ep, &world).barrier();
        let rank0 = ep.rank() == 0;
        let mut cx = Cx {
            world,
            origin,
            setup_from,
            rank0,
            rank: ep.rank(),
            stack: Vec::new(),
            first_op_seen: false,
            last_virt: 0.0,
            out: RankOut::default(),
        };
        cx.out.spawn_s = run_entry.elapsed().as_secs_f64();
        if rank0 {
            if let Err(e) = crate::check_threads() {
                cx.out.errors.push(e);
                cx.out.failed.insert(u64::MAX);
            }
        }
        cx
    }

    pub fn is_rank0(&self) -> bool {
        self.rank0
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open an enclosing span (no barrier).  Only rank 0 records.
    pub fn begin(&mut self, ep: &Endpoint, name: &'static str) {
        if !self.rank0 {
            return;
        }
        let t = self.now();
        self.out.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.out.ops,
            host: (t, t),
            virt: (ep.clock(), ep.clock()),
        });
        self.stack.push(self.out.spans.len() - 1);
    }

    pub fn end(&mut self, ep: &Endpoint) {
        if !self.rank0 {
            return;
        }
        let t = self.now();
        let i = self.stack.pop().expect("end without begin");
        self.out.spans[i].host.1 = t;
        self.out.spans[i].virt.1 = ep.clock();
    }

    /// Time one call into a layer on both clocks, bracketed by world-wide
    /// clock synchronization.  Every rank must call this in the same
    /// order.  Returns the call's result and the op id.
    pub fn op<R>(
        &mut self,
        ep: &mut Endpoint,
        name: &'static str,
        f: impl FnOnce(&mut Endpoint) -> R,
    ) -> (R, u64) {
        if self.rank0 {
            speed::maybe_sample();
        }
        let v0 = Comm::borrowed(ep, &self.world).sync_clocks();
        let h0 = self.now();
        if !self.first_op_seen && !name.starts_with(PROBE_PREFIX) {
            self.first_op_seen = true;
            self.out.setup_s = self.setup_from.elapsed().as_secs_f64();
        }
        let s0 = ep.stats_snapshot();
        let r = f(ep);
        let s1 = ep.stats_snapshot();
        let v1 = Comm::borrowed(ep, &self.world).sync_clocks();
        let h1 = self.now();
        let id = self.next_op();
        self.last_virt = v1 - v0;
        self.out
            .counts
            .entry(name)
            .or_default()
            .add(&Counts::from_delta(&s1.since(&s0)));
        *self.out.virt.entry(name).or_default() += v1 - v0;
        if self.rank0 {
            *self.out.host.entry(name).or_default() += h1 - h0;
            self.out.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                op: id,
                host: (h0, h1),
                virt: (v0, v1),
            });
        }
        (r, id)
    }

    /// Virtual seconds of the last op (the same on every rank).
    pub fn last_virt(&self) -> f64 {
        self.last_virt
    }

    /// Allocate an op id for a check that is not a call of its own.  Every
    /// rank must call this in the same order.
    pub fn next_op(&mut self) -> u64 {
        self.out.ops += 1;
        self.out.ops - 1
    }

    /// As [`Cx::op`], and record the call as one move sample.
    pub fn move_op<R>(
        &mut self,
        ep: &mut Endpoint,
        name: &'static str,
        f: impl FnOnce(&mut Endpoint) -> R,
    ) -> (R, u64) {
        let (r, id) = self.op(ep, name, f);
        if self.rank0 {
            let s = self.out.spans.last().expect("op pushed a span");
            self.out
                .moves
                .push((s.host.1 - s.host.0, s.virt.1 - s.virt.0));
        }
        (r, id)
    }

    /// Record a verification outcome for op `id`.
    pub fn check(&mut self, id: u64, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.out.failed.insert(id);
            self.out
                .errors
                .push(format!("rank {}: op {id}: {}", self.rank, what()));
        }
    }

    /// Record a probe value; each probe is recorded by exactly one rank.
    pub fn probe(&mut self, name: &'static str, value: f64) {
        self.out.probes.insert(name, value);
    }

    /// Time `reps` empty world barriers; rank 0 records host µs each.
    pub fn barrier_probe(&mut self, ep: &mut Endpoint, reps: usize) {
        Comm::borrowed(ep, &self.world).barrier();
        let t = Instant::now();
        for _ in 0..reps {
            Comm::borrowed(ep, &self.world).barrier();
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
        if self.rank0 {
            self.probe("mcsim.sched.barrier_us", us);
        }
    }

    /// One dense alltoallv of 8-byte payloads over `g`; every rank of the
    /// world takes part in the bracketing op.
    pub fn alltoallv_probe(&mut self, ep: &mut Endpoint, g: &Group) {
        let g = g.clone();
        let (_, _) = self.op(ep, "probe.alltoallv", |ep| {
            if let Some(me) = g.local_of(ep.rank()) {
                let send = (0..g.size())
                    .map(|d| ((me * g.size() + d) as u64).to_le_bytes().to_vec())
                    .collect();
                Comm::borrowed(ep, &g).alltoallv_bytes(send);
            }
        });
        if self.rank0 {
            let h = self.out.host["probe.alltoallv"];
            self.probe("mcsim.collectives.alltoallv_ms", h * 1e3);
        }
    }

    pub fn finish(self) -> RankOut {
        self.out
    }
}

/// OS threads this process runs now, from `/proc/self/status`.
pub fn threads_now() -> Option<usize> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Host peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What an mcsim event trace of one world yields.
#[derive(Debug, Clone)]
pub struct TraceDigest {
    /// Virtual critical-path seconds per `mcsim::analyze::TAXONOMY` phase.
    pub cp: BTreeMap<&'static str, f64>,
    /// Virtual seconds receivers waited on arrivals, summed over ranks.
    pub recv_wait_s: f64,
    /// Bytes sent on the reliable DATA class inside move spans.
    pub move_data_bytes: u64,
    pub self_check: Result<(), String>,
}

impl TraceDigest {
    pub fn add(&mut self, o: &TraceDigest) {
        for (k, v) in &o.cp {
            *self.cp.entry(k).or_default() += v;
        }
        self.recv_wait_s += o.recv_wait_s;
        self.move_data_bytes += o.move_data_bytes;
        if self.self_check.is_ok() {
            self.self_check = o.self_check.clone();
        }
    }
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest {
            cp: BTreeMap::new(),
            recv_wait_s: 0.0,
            move_data_bytes: 0,
            self_check: Ok(()),
        }
    }
}

/// Virtual intervals of a world's spans, sorted, for membership tests.
struct Windows(Vec<(f64, f64)>);

impl Windows {
    fn of(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Self {
        let mut w: Vec<(f64, f64)> = spans.iter().filter(|s| keep(s)).map(|s| s.virt).collect();
        w.sort_by(|a, b| a.0.total_cmp(&b.0));
        Windows(w)
    }

    fn contains(&self, t: f64) -> bool {
        let i = self.0.partition_point(|w| w.0 <= t);
        i > 0 && t <= self.0[i - 1].1
    }
}

/// True for the harness's own collective traffic (clock syncs, barriers).
fn is_harness_tag(tag: Tag) -> bool {
    tag.ctx() == Tag::COLL_CTX && tag.value() >> 4 == HARNESS_CTX
}

/// Reduce one world's traces, given rank 0's spans of that world.
/// Receive waits count inside the timed ops only, and not on the
/// harness's own syncs; DATA-class sends inside the move spans are the
/// moves' wire bytes.
pub fn digest_traces(traces: &[Vec<TraceEvent>], spans: &[Span]) -> TraceDigest {
    let report = analyze(traces);
    let cp = report.phase_totals();
    // The timed ops do not overlap, so a time is in one at most.
    let timed = Windows::of(spans, |s| {
        !s.name.starts_with(PROBE_PREFIX) && s.name != TIMED_SPAN
    });
    let moves = Windows::of(spans, |s| s.name == "meta_chaos.move");
    let mut recv_wait_s = 0.0;
    let mut move_data_bytes = 0u64;
    for ev in traces.iter().flatten() {
        match ev {
            TraceEvent::Recv {
                at, tag, waited, ..
            } if !is_harness_tag(*tag) && timed.contains(*at) => recv_wait_s += waited,
            TraceEvent::Send { at, tag, bytes, .. }
                if tag.class() == Tag::CLASS_RELIABLE_DATA && moves.contains(*at) =>
            {
                move_data_bytes += *bytes as u64
            }
            _ => {}
        }
    }
    TraceDigest {
        cp,
        recv_wait_s,
        move_data_bytes,
        self_check: report.self_check(),
    }
}

/// Bytes an mcsim event trace would take for `msgs` messages (a send and
/// a receive event each, plus per-transfer marks).
pub fn trace_bytes_estimate(msgs: u64) -> u64 {
    msgs * 3 * std::mem::size_of::<TraceEvent>() as u64
}

/// Host speed sampling.
///
/// The host this benchmark was written on (a 2-vCPU Intel Xeon VM)
/// changes speed by up to 1.85x, over anything from a second to many
/// minutes, in user-mode code and not as stolen time: process CPU time
/// drifts with wall time, and pinning the process to one processor does
/// not help.  So a repetition's host times are scaled by how fast fixed
/// kernels ran while the repetition ran.  The kernels call no code of the
/// program under test.  Rank 0 runs them between ops, outside every timed
/// window, at most once per [`EVERY_S`](speed::EVERY_S), so the samples
/// follow the drift through the repetition.
///
/// The drift does not slow all code alike: small allocations and hashing
/// slow more than large copies.  So there are two kernels ([`Probe`]) and
/// each workload names the one whose drift follows its timed section;
/// set-up, which allocates and fills inputs, follows [`Probe::Alloc`].
/// Measured on that host with samples every 20 ms, over the repetitions
/// of one process per workload: the correlation of the timed section's wall with the
/// kernel's mean sample, and the spread of the walls (quartile distance
/// over median) before and after scaling.
///
/// | workload | kernel | reps | correlation | spread before | after |
/// |---|---|---|---|---|---|
/// | `paper_tables` | alloc | 43 | 0.93 | 0.215 | 0.084 |
/// | `scale_p1024` | alloc | 14 | 0.80 | 0.396 | 0.077 |
/// | `bulk_8mb` | copy | 16 | 0.98 | 0.082 | 0.038 |
/// | `bulk_8mb_lossy` | copy | 17 | 0.92 | 0.087 | 0.041 |
///
/// The alloc kernel took the spread of `bulk_8mb` to 0.205 instead.
pub mod speed {
    use std::collections::{BTreeMap, HashMap, VecDeque};
    use std::hint::black_box;
    use std::sync::Mutex;
    use std::time::Instant;

    use super::mix;

    /// Least host seconds between two samples.
    pub const EVERY_S: f64 = 0.04;
    /// Bytes of the copy kernel's buffers.
    const COPY_BYTES: usize = 8 << 20;

    /// A speed kernel.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Probe {
        /// Small allocations, ordered-map and hash-map churn: for time
        /// that goes to many small messages.
        Alloc,
        /// One 8 MiB copy: for time that goes to copying large buffers.
        Copy,
    }

    impl Probe {
        /// Seconds one run of the kernel takes on the reference host at
        /// its usual speed; host times are reported in seconds of that
        /// host.
        fn reference_s(self) -> f64 {
            match self {
                Probe::Alloc => 0.0024,
                Probe::Copy => 0.0016,
            }
        }
    }

    /// A repetition's speed against the reference host, per kernel.
    #[derive(Debug, Clone, Copy)]
    pub struct Speeds {
        pub alloc: f64,
        pub copy: f64,
        pub samples: usize,
    }

    impl Speeds {
        /// Unsampled: the reference speed.
        pub const ONE: Speeds = Speeds {
            alloc: 1.0,
            copy: 1.0,
            samples: 0,
        };

        pub fn of(&self, p: Probe) -> f64 {
            match p {
                Probe::Alloc => self.alloc,
                Probe::Copy => self.copy,
            }
        }
    }

    struct Sampler {
        src: Vec<u8>,
        dst: Vec<u8>,
        last: Instant,
        /// Seconds per sample: (alloc, copy).
        samples: Vec<(f64, f64)>,
    }

    /// A mutex, not a thread-local: the ranks may run on a worker thread
    /// of the runner, and the repetition loop on the main thread.
    static SAMPLER: Mutex<Option<Sampler>> = Mutex::new(None);

    impl Sampler {
        fn sample(&mut self) {
            let t = Instant::now();
            alloc_kernel();
            let alloc = t.elapsed().as_secs_f64();
            let t = Instant::now();
            self.dst.copy_from_slice(black_box(&self.src));
            black_box(&self.dst);
            self.samples.push((alloc, t.elapsed().as_secs_f64()));
            self.last = Instant::now();
        }
    }

    fn alloc_kernel() {
        let mut m: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut h = 0u64;
        for i in 0..4_000u64 {
            let k = mix(i) & 0xffff;
            m.insert(k, vec![i as u8; (k & 63) as usize]);
            if let Some(v) = m.get(&(mix(i ^ 7) & 0xffff)) {
                h = h.wrapping_add(v.len() as u64);
            }
            if i % 3 == 0 {
                m.remove(&(mix(i ^ 9) & 0xffff));
            }
        }
        // Messages between 64 mailboxes.
        let mut q: HashMap<(u64, u64), VecDeque<Vec<u8>>> = HashMap::new();
        for i in 0..6_000u64 {
            let to = (mix(i) % 64, mix(i ^ 3) % 64);
            q.entry(to)
                .or_default()
                .push_back(vec![i as u8; 8 + (i % 56) as usize]);
            let from = (mix(i ^ 5) % 64, mix(i ^ 11) % 64);
            if let Some(msg) = q.get_mut(&from).and_then(|v| v.pop_front()) {
                h = h.wrapping_add(msg.iter().map(|&x| x as u64).sum::<u64>());
            }
        }
        black_box(h);
    }

    /// Start sampling a repetition (building the sampler the first time)
    /// with one sample now.
    pub fn begin() {
        let mut s = SAMPLER.lock().expect("speed sampler");
        let s = s.get_or_insert_with(|| Sampler {
            src: vec![1; COPY_BYTES],
            dst: vec![2; COPY_BYTES],
            last: Instant::now(),
            samples: Vec::new(),
        });
        s.samples.clear();
        s.sample();
    }

    /// Take a sample if sampling is on and [`EVERY_S`] has passed.
    pub fn maybe_sample() {
        if let Some(s) = SAMPLER.lock().expect("speed sampler").as_mut() {
            if s.last.elapsed().as_secs_f64() >= EVERY_S {
                s.sample();
            }
        }
    }

    /// End a repetition with one sample now, and return the host's speed
    /// while it ran: per kernel, the reference seconds over the mean
    /// sample.
    pub fn end() -> Speeds {
        let mut s = SAMPLER.lock().expect("speed sampler");
        let s = s.as_mut().expect("speed::begin before speed::end");
        s.sample();
        let n = s.samples.len();
        let mean = |f: fn(&(f64, f64)) -> f64| s.samples.iter().map(f).sum::<f64>() / n as f64;
        Speeds {
            alloc: Probe::Alloc.reference_s() / mean(|x| x.0),
            copy: Probe::Copy.reference_s() / mean(|x| x.1),
            samples: n,
        }
    }
}

/// SplitMix64 finalizer: the value generator for every seeded input.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded element values: distinct for every global index below 2^52 and
/// integer-valued, so every copy is exact and a misplaced, skipped or
/// replayed element is caught bit for bit.  One multiply per element, so
/// generating inputs stays memory-bound.
#[derive(Debug, Clone, Copy)]
pub struct Values(u64);

impl Values {
    /// The values of generation `gen` under `seed`.
    pub fn new(seed: u64, gen: u64) -> Self {
        Values(mix(seed ^ mix(gen)))
    }

    /// The value of global index `g`: an odd multiplier and an XOR are
    /// both bijections on the low 52 bits.
    pub fn at(&self, g: usize) -> f64 {
        (((g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.0) & ((1 << 52) - 1)) as f64
    }
}
