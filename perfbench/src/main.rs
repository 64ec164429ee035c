//! Benchmark of the Meta-Chaos simulator on two clocks.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process on the default cooperative runner
//! (one OS thread), repeating whole worlds until `--seconds` have passed
//! (at least [`MIN_REPS`] times, the first a warm-up), verifies every
//! output, and prints one JSON object as the last line of standard
//! output.  With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` the per-layer ones, and writes the benchmark's own spans
//! to `.bench_out/spans-<workload>-<seed>.jsonl`.
//!
//! Every metric is on one of two clocks.  *Host* numbers are what the
//! simulator costs, read with `Instant` around the call they name
//! (medians over repetitions) and given in seconds of a reference host:
//! each repetition's host times are scaled by how fast a fixed kernel ran
//! between its ops ([`harness::speed`]), because the host this was
//! written on drifts in speed by up to 1.85x.  The speed factor and the
//! unscaled wall are reported per layer (`host.speed`,
//! `host.raw_wall_s`); the span file holds unscaled times.
//! *Virtual* numbers are what the modelled machine costs; they are
//! deterministic, and checked to repeat bit for bit across the
//! repetitions of a run and across runs with the same seed and sources.
//!
//! End to end:
//!
//! | metric | clock | what |
//! |---|---|---|
//! | `wall_s` | host | the timed section: the sum of its barrier-bracketed calls |
//! | `setup_s` | host | world construction and input generation, up to the first timed call |
//! | `peak_rss_mib` | host | `VmHWM` after the first repetition |
//! | `virtual_ms` | virtual | the timed section, each call the max over ranks |
//!
//! Per layer: `mcsim.*`, `meta_chaos.*` and `hpf.*` are named after the
//! module whose call or counter they read (`*_ms`/`*_us`/`*_ns` host
//! unless named `virtual`; `recv_wait_ms` virtual), `cp.*` is the virtual
//! critical path of `mcsim::analyze`, `paper.*` the virtual table cells,
//! `tulip.*` the Multiblock↔Tulip coupling of `paper_tables`,
//! `move_wall_*` host and `move_virtual_*` virtual quantiles over every
//! barrier-bracketed move.  A layer a workload does not run reads 0.
//!
//! Workloads, and why each is here:
//!
//! * `scale_p1024` — 1024 ranks, tiny payload: host time goes to the
//!   runner, messaging and the inspector.
//! * `bulk_8mb` — 4 ranks, 8 MB moves: pack/unpack, reliable framing and
//!   the session protocol dominate.
//! * `bulk_8mb_lossy` — as `bulk_8mb` under ~1% drop/dup/corrupt: the
//!   checksum, NACK, retransmit and replay paths run.
//! * `paper_tables` — Tables 1–5 and Fig 10 at paper sizes on the SP2 and
//!   ATM models: Chaos translation tables, element-granular runs and the
//!   native Chaos/Parti baselines; compared with the paper's numbers.
//!   One more world couples the regular mesh to a Tulip collection.

mod coupled;
mod harness;
mod paper;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use harness::{peak_rss_mib, speed, threads_now, Counts, RankOut, Span, TraceDigest, PROBE_PREFIX};

/// Repetitions a run makes at least, whatever `--seconds` says.  The first
/// is a warm-up for the host clock: it faults in the heap that later
/// worlds reuse, which makes it up to 25% slower at P=1024.
const MIN_REPS: usize = 4;
/// Stop starting new repetitions past this many seconds, so a run ends
/// well inside its time limit.
const HARD_STOP_S: f64 = 120.0;
/// Largest mcsim event trace a traced world may record.
pub const TRACE_BUDGET_BYTES: u64 = 256 << 20;
/// Where traces and the cross-run determinism records go, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

/// How one world runs.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Record the mcsim event trace (for `mcsim::analyze`).
    pub trace_world: bool,
    /// Run the per-layer probes after the timed section.
    pub probes: bool,
}

/// One repetition of a workload: everything its worlds measured.
#[derive(Debug, Default)]
pub struct WorldOut {
    /// Rank 0's record: spans, host times, moves, spawn and set-up.
    pub rank0: RankOut,
    /// Counters summed over ranks, per op name.
    pub counts: BTreeMap<&'static str, Counts>,
    /// Probe values (each recorded by one rank).
    pub probes: BTreeMap<&'static str, f64>,
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub trace: Option<TraceDigest>,
    /// Payload bytes the moves carried (for the goodput ratio).
    pub goodput_bytes: u64,
    /// Virtual-clock results of the paper tables, by metric name.
    pub paper: BTreeMap<String, f64>,
    /// Host peak resident set of the process by the end of this
    /// repetition, MiB (read after the warm-up only).
    pub peak_rss_mib: f64,
    /// Host speed against the reference while this repetition ran, by
    /// the timed section's kernel.
    pub speed: f64,
    /// Host seconds of the timed section before scaling.
    pub raw_wall_s: f64,
}

impl WorldOut {
    /// Fold the per-rank records of one world.
    pub fn merge(ranks: Vec<RankOut>) -> Self {
        let mut it = ranks.into_iter();
        let mut rank0 = it.next().expect("a world has a rank 0");
        let mut w = WorldOut {
            counts: std::mem::take(&mut rank0.counts),
            probes: std::mem::take(&mut rank0.probes),
            ops: rank0.ops,
            errors: std::mem::take(&mut rank0.errors),
            ..WorldOut::default()
        };
        let mut failed = std::mem::take(&mut rank0.failed);
        for r in it {
            rank0.spawn_s = rank0.spawn_s.min(r.spawn_s);
            for (k, c) in &r.counts {
                w.counts.entry(k).or_default().add(c);
            }
            w.probes.extend(r.probes);
            failed.extend(r.failed);
            w.errors.extend(r.errors);
        }
        w.failed = failed.len() as u64;
        w.rank0 = rank0;
        w
    }

    /// Add another world of the same repetition.
    pub fn absorb(&mut self, o: WorldOut) {
        let base = self.rank0.spans.len();
        self.rank0
            .spans
            .extend(o.rank0.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        for (k, v) in o.rank0.host {
            *self.rank0.host.entry(k).or_default() += v;
        }
        for (k, v) in o.rank0.virt {
            *self.rank0.virt.entry(k).or_default() += v;
        }
        self.rank0.moves.extend(o.rank0.moves);
        self.rank0.spawn_s += o.rank0.spawn_s;
        self.rank0.setup_s += o.rank0.setup_s;
        for (k, c) in &o.counts {
            self.counts.entry(k).or_default().add(c);
        }
        self.probes.extend(o.probes);
        self.ops += o.ops;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        if let Some(t) = o.trace {
            self.trace.get_or_insert_with(TraceDigest::default).add(&t);
        }
        self.goodput_bytes += o.goodput_bytes;
        self.paper.extend(o.paper);
    }

    /// Put every host time of this repetition (not the spans) in seconds
    /// of the reference host: set-up by the alloc kernel's speed, the rest
    /// by `probe`'s.
    fn scale_host(&mut self, speeds: speed::Speeds, probe: speed::Probe) {
        let speed = speeds.of(probe);
        self.raw_wall_s = self.wall_s();
        self.speed = speed;
        let r = &mut self.rank0;
        r.host.values_mut().for_each(|v| *v *= speed);
        r.moves.iter_mut().for_each(|m| m.0 *= speed);
        r.spawn_s *= speeds.alloc;
        r.setup_s *= speeds.alloc;
        self.probes.values_mut().for_each(|v| *v *= speed);
    }

    fn timed<'a>(map: &'a BTreeMap<&'static str, f64>) -> impl Iterator<Item = f64> + 'a {
        map.iter()
            .filter(|(k, _)| !k.starts_with(PROBE_PREFIX))
            .map(|(_, v)| *v)
    }

    /// Host seconds of the timed section: the sum of its ops.
    fn wall_s(&self) -> f64 {
        Self::timed(&self.rank0.host).sum()
    }

    /// Virtual seconds of the timed section: the sum of its ops, each the
    /// max over ranks.
    fn virtual_s(&self) -> f64 {
        Self::timed(&self.rank0.virt).sum()
    }

    fn timed_counts(&self) -> Counts {
        let mut c = Counts::default();
        for (k, v) in &self.counts {
            if !k.starts_with(PROBE_PREFIX) {
                c.add(v);
            }
        }
        c
    }

    fn all_msgs(&self) -> u64 {
        self.counts.values().map(|c| c.msgs).sum()
    }

    /// Everything virtual this repetition produced, as one string: two
    /// repetitions with the same seed must give the same one.
    fn fingerprint(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.rank0.virt {
            if !k.starts_with(PROBE_PREFIX) {
                let _ = write!(s, "{k}={:016x};", v.to_bits());
            }
        }
        for (k, c) in &self.counts {
            if !k.starts_with(PROBE_PREFIX) {
                let _ = write!(s, "{k}:{c:?};");
            }
        }
        let mut h = 0u64;
        for (_, v) in &self.rank0.moves {
            h = harness::mix(h ^ v.to_bits());
        }
        let _ = write!(s, "moves={}:{h:016x};", self.rank0.moves.len());
        for (k, v) in &self.paper {
            let _ = write!(s, "{k}={:016x};", v.to_bits());
        }
        s
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        a.insert(key.to_string(), v);
    }
    let get = |k: &str| a.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: num("seconds")? as f64,
        trace,
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The load check: this process may run at most `nproc` OS threads.
pub fn check_threads() -> Result<(), String> {
    let t = threads_now().ok_or("cannot read Threads from /proc/self/status")?;
    if t > nproc() {
        return Err(format!("{t} OS threads running on {} processors", nproc()));
    }
    Ok(())
}

enum Workload {
    Coupled(coupled::Coupled),
    Paper(u64),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "scale_p1024" => Workload::Coupled(coupled::Coupled::scale_p1024(seed)),
            "bulk_8mb" => Workload::Coupled(coupled::Coupled::bulk_8mb(seed, false)),
            "bulk_8mb_lossy" => Workload::Coupled(coupled::Coupled::bulk_8mb(seed, true)),
            "paper_tables" => Workload::Paper(seed),
            _ => return None,
        })
    }

    /// The host speed kernel whose drift follows the timed section's.
    fn probe(&self) -> speed::Probe {
        match self {
            Workload::Coupled(c) => c.probe,
            Workload::Paper(_) => speed::Probe::Alloc,
        }
    }

    fn rep(&self, mode: Mode, origin: Instant) -> WorldOut {
        match self {
            Workload::Coupled(c) => coupled::run_world(c, mode, origin),
            Workload::Paper(seed) => paper::run_rep(*seed, mode, origin),
        }
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[k - 1]
}

/// Per-span-name self time (duration minus the part its children cover),
/// host and virtual seconds, summed over spans.
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64, usize)> {
    let mut child_host = vec![0.0; spans.len()];
    let mut child_virt = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_host[p] += s.host.1 - s.host.0;
            child_virt[p] += s.virt.1 - s.virt.0;
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.0 += s.host.1 - s.host.0 - child_host[i];
        e.1 += s.virt.1 - s.virt.0 - child_virt[i];
        e.2 += 1;
    }
    out
}

fn write_spans(
    path: &str,
    reps: &[(Mode, WorldOut)],
    selfs: &BTreeMap<&'static str, (f64, f64, usize)>,
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (mode, r)) in reps.iter().enumerate() {
        for (j, s) in r.rank0.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"rep\": {i}, \"traced\": {}, \"id\": {j}, \"name\": \"{}\", \"parent\": {}, \"op\": {}, \
                 \"host_start_s\": {:?}, \"host_end_s\": {:?}, \"virt_start_s\": {:?}, \"virt_end_s\": {:?}}}",
                mode.trace_world,
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.host.0,
                s.host.1,
                s.virt.0,
                s.virt.1
            )?;
        }
    }
    for (k, (h, v, n)) in selfs {
        writeln!(
            f,
            "{{\"self_time\": \"{k}\", \"host_s\": {h:?}, \"virt_s\": {v:?}, \"spans\": {n}}}"
        )?;
    }
    f.flush()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let origin = Instant::now();

    // Repetitions.  In a traced run every other repetition records the
    // mcsim event trace, so traced and untraced walls come from the same
    // process; probes run in the untraced ones.
    let mut reps: Vec<(Mode, WorldOut)> = Vec::new();
    let mut traceable = args.trace;
    let mut trace_note = String::new();
    loop {
        let traced_turn = args.trace && traceable && reps.len() % 2 == 1;
        let mode = Mode {
            trace_world: traced_turn,
            probes: args.trace && !traced_turn,
        };
        // The warm-up runs unsampled: the sampler's buffer is built after
        // it, and stays out of `peak_rss_mib`.
        let sampled = !reps.is_empty();
        if sampled {
            speed::begin();
        }
        let t = Instant::now();
        let mut r = workload.rep(mode, origin);
        let rep_s = t.elapsed().as_secs_f64();
        if reps.is_empty() {
            r.peak_rss_mib = peak_rss_mib();
        }
        let speeds = if sampled {
            speed::end()
        } else {
            speed::Speeds::ONE
        };
        r.scale_host(speeds, workload.probe());
        eprintln!(
            "rep {}: wall {:.4} s, setup {:.4} s, raw wall {:.4} s, speed {:.3} (alloc {:.3}, copy {:.3}, {} samples), peak rss {:.1} MiB, whole world {rep_s:.3} s, mcsim trace {}",
            reps.len(),
            r.wall_s(),
            r.rank0.setup_s,
            r.raw_wall_s,
            r.speed,
            speeds.alloc,
            speeds.copy,
            speeds.samples,
            r.peak_rss_mib,
            mode.trace_world
        );
        if reps.is_empty() && args.trace {
            let est = harness::trace_bytes_estimate(r.all_msgs());
            if est > TRACE_BUDGET_BYTES {
                traceable = false;
                trace_note = format!(
                    "untraced: an mcsim event trace of {} messages needs about {} MiB, over the {} MiB budget",
                    r.all_msgs(),
                    est >> 20,
                    TRACE_BUDGET_BYTES >> 20
                );
            }
        }
        reps.push((mode, r));
        let elapsed = origin.elapsed().as_secs_f64();
        let enough = reps.len() >= MIN_REPS + usize::from(args.trace && traceable);
        if (enough && elapsed >= args.seconds) || elapsed + rep_s > HARD_STOP_S {
            break;
        }
    }

    // Correctness: every op verified, every repetition's virtual results
    // identical, and identical to earlier runs with this seed.
    let mut attempted: u64 = reps.iter().map(|(_, r)| r.ops).sum();
    let mut failed: u64 = reps.iter().map(|(_, r)| r.failed).sum();
    for (_, r) in &reps {
        for e in r.errors.iter().take(20) {
            eprintln!("perfbench: FAILED {e}");
        }
    }
    let fp0 = reps[0].1.fingerprint();
    for (i, (_, r)) in reps.iter().enumerate().skip(1) {
        attempted += 1;
        if r.fingerprint() != fp0 {
            failed += 1;
            eprintln!("perfbench: FAILED repetition {i} differs from repetition 0 in a virtual metric or counter");
        }
    }
    attempted += 1;
    if let Err(e) = check_same_as_earlier_runs(&args, &fp0) {
        failed += 1;
        eprintln!("perfbench: FAILED {e}");
    }
    attempted += 1;
    if let Err(e) = check_threads() {
        failed += 1;
        eprintln!("perfbench: FAILED load check: {e}");
    }
    for (_, r) in reps.iter().filter(|(m, _)| m.trace_world) {
        attempted += 1;
        if let Some(Err(e)) = r.trace.as_ref().map(|t| &t.self_check) {
            failed += 1;
            eprintln!("perfbench: FAILED critical-path self-check: {e}");
        }
    }

    let metrics = if args.trace {
        per_layer(&reps, failed, attempted)
    } else {
        end_to_end(&reps)
    };
    for (k, (v, _)) in &metrics {
        if !v.is_finite() {
            failed += 1;
            eprintln!("perfbench: FAILED metric {k} is not finite");
        }
    }

    let moves: usize = measured(&reps).map(|r| r.rank0.moves.len()).sum();
    if args.trace {
        let mut selfs: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for (_, r) in &reps {
            for (k, (h, v, n)) in self_times(&r.rank0.spans) {
                let e = selfs.entry(k).or_default();
                e.0 += h;
                e.1 += v;
                e.2 += n;
            }
        }
        let _ = std::fs::create_dir_all(OUT_DIR);
        let path = format!("{OUT_DIR}/spans-{}-{}.jsonl", args.workload, args.seed);
        if let Err(e) = write_spans(&path, &reps, &selfs) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
        eprintln!(
            "self time by span (host ms, virtual ms, count), {} repetitions:",
            reps.len()
        );
        for (k, (h, v, n)) in selfs {
            eprintln!("  {k:<34} {:>12.3} {:>12.3} {n:>7}", h * 1e3, v * 1e3);
        }
    }
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"commit\": \"{}\", \"source\": \"{}\", \"runner\": \"Coop {{ workers: 1 }}\", \
         \"nproc\": {}, \"repetitions\": {}, \"move_samples\": {moves}, \"traced\": {}, \"trace_note\": \"{}\"}}}}",
        args.workload,
        args.seed,
        commit(),
        source(),
        nproc(),
        reps.len(),
        args.trace && traceable,
        trace_note
    );

    let mut m = String::new();
    for (i, (k, (v, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{k}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Compare this run's virtual fingerprint with the one an earlier run of
/// the same workload and seed left in the checkout, or leave one.
fn check_same_as_earlier_runs(args: &Args, fp: &str) -> Result<(), String> {
    let _ = std::fs::create_dir_all(OUT_DIR);
    // Keyed by the source digest too: other code may change virtual
    // results on purpose.
    let src: String = source()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();
    let path = format!(
        "{OUT_DIR}/virtual-{}-{}-{src}.txt",
        args.workload, args.seed
    );
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == fp => Ok(()),
        Ok(_) => Err(format!(
            "virtual metrics differ from an earlier run with seed {} ({path})",
            args.seed
        )),
        Err(_) => std::fs::write(&path, fp).map_err(|e| format!("cannot write {path}: {e}")),
    }
}

/// The commit `run.py` passes in.
fn commit() -> String {
    std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())
}

/// The source digest `run.py` passes in.
fn source() -> String {
    std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "unknown".into())
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The repetitions host metrics come from: untraced, after the warm-up.
fn measured(reps: &[(Mode, WorldOut)]) -> impl Iterator<Item = &WorldOut> {
    reps.iter()
        .skip(1)
        .filter(|(m, _)| !m.trace_world)
        .map(|(_, r)| r)
}

fn end_to_end(reps: &[(Mode, WorldOut)]) -> Metrics {
    let walls: Vec<f64> = measured(reps).map(|r| r.wall_s()).collect();
    let setups: Vec<f64> = measured(reps).map(|r| r.rank0.setup_s).collect();
    let mut m = Metrics::new();
    m.insert("wall_s".into(), (median(&walls), "s"));
    m.insert("setup_s".into(), (median(&setups), "s"));
    // Read after the first repetition: later ones start from what earlier
    // worlds left resident.
    m.insert("peak_rss_mib".into(), (reps[0].1.peak_rss_mib, "MiB"));
    m.insert("virtual_ms".into(), (reps[0].1.virtual_s() * 1e3, "ms"));
    m
}

fn per_layer(reps: &[(Mode, WorldOut)], failed: u64, attempted: u64) -> Metrics {
    let first = &reps[0].1;
    let med = |f: &dyn Fn(&WorldOut) -> Option<f64>| -> f64 {
        median(&measured(reps).filter_map(f).collect::<Vec<_>>())
    };
    let host_ms = |name: &'static str| med(&|r| r.rank0.host.get(name).map(|h| h * 1e3));
    let probe = |name: &'static str| med(&|r| r.probes.get(name).copied());
    let count = |name: &str| first.counts.get(name).copied().unwrap_or_default();
    let virt_ms = |name: &str| first.rank0.virt.get(name).copied().unwrap_or(0.0) * 1e3;
    let timed = first.timed_counts();
    let build = count("meta_chaos.build");
    let traced: Vec<&WorldOut> = reps
        .iter()
        .filter(|(m, _)| m.trace_world)
        .map(|(_, r)| r)
        .collect();
    let digest = traced
        .first()
        .and_then(|r| r.trace.clone())
        .unwrap_or_default();

    let mut m = Metrics::new();
    let mut put = |k: &str, v: f64, unit: &'static str| {
        m.insert(k.to_string(), (v, unit));
    };
    put("host.speed", med(&|r| Some(r.speed)), "ratio");
    put("host.raw_wall_s", med(&|r| Some(r.raw_wall_s)), "s");
    put(
        "mcsim.world.spawn_ms",
        med(&|r| Some(r.rank0.spawn_s * 1e3)),
        "ms",
    );
    put(
        "mcsim.sched.barrier_us",
        probe("mcsim.sched.barrier_us"),
        "us",
    );
    put(
        "mcsim.collectives.alltoallv_ms",
        probe("mcsim.collectives.alltoallv_ms"),
        "ms",
    );
    put(
        "mcsim.collectives.alltoallv_msgs",
        count("probe.alltoallv").msgs as f64,
        "count",
    );
    put("mcsim.endpoint.msgs", timed.msgs as f64, "count");
    put("mcsim.endpoint.bytes", timed.bytes as f64, "bytes");
    put(
        "mcsim.endpoint.host_ns_per_msg",
        if build.msgs == 0 {
            0.0
        } else {
            host_ms("meta_chaos.build") * 1e6 / build.msgs as f64
        },
        "ns",
    );
    put(
        "mcsim.endpoint.recv_wait_ms",
        digest.recv_wait_s * 1e3,
        "ms",
    );
    put(
        "mcsim.reliable.send_recv_ms",
        probe("mcsim.reliable.send_recv_ms"),
        "ms",
    );
    put(
        "mcsim.reliable.retransmits",
        timed.retransmits as f64,
        "count",
    );
    put(
        "mcsim.reliable.nacks_sent",
        timed.nacks_sent as f64,
        "count",
    );
    put("mcsim.reliable.timeouts", timed.timeouts as f64, "count");
    put(
        "mcsim.reliable.window_stalls",
        timed.window_stalls as f64,
        "count",
    );
    put(
        "mcsim.reliable.dup_frames_dropped",
        timed.dup_frames_dropped as f64,
        "count",
    );
    put(
        "mcsim.reliable.goodput_ratio",
        if digest.move_data_bytes == 0 {
            0.0
        } else {
            first.goodput_bytes as f64 / digest.move_data_bytes as f64
        },
        "ratio",
    );
    put(
        "meta_chaos.build.wall_ms",
        host_ms("meta_chaos.build"),
        "ms",
    );
    put(
        "meta_chaos.build.virtual_ms",
        virt_ms("meta_chaos.build"),
        "ms",
    );
    put("meta_chaos.build.msgs", build.msgs as f64, "count");
    put(
        "meta_chaos.datamove.pack_ms",
        probe("meta_chaos.datamove.pack_ms"),
        "ms",
    );
    put(
        "meta_chaos.datamove.unpack_ms",
        probe("meta_chaos.datamove.unpack_ms"),
        "ms",
    );
    put(
        "meta_chaos.session.frames_staged",
        timed.frames_staged as f64,
        "count",
    );
    put(
        "meta_chaos.session.transfers_committed",
        timed.transfers_committed as f64,
        "count",
    );
    put(
        "meta_chaos.session.transfers_aborted",
        timed.transfers_aborted as f64,
        "count",
    );
    for phase in mcsim::analyze::TAXONOMY {
        let v = digest.cp.get(phase).copied().unwrap_or(0.0);
        put(&format!("cp.{phase}_ms"), v * 1e3, "ms");
    }
    put(
        "hpf.redistribute.wall_ms",
        host_ms("hpf.redistribute"),
        "ms",
    );
    put(
        "hpf.redistribute.virtual_ms",
        virt_ms("hpf.redistribute"),
        "ms",
    );
    put(
        "hpf.redistribute.msgs",
        count("hpf.redistribute").msgs as f64,
        "count",
    );
    put("tulip.build.virtual_ms", virt_ms("tulip.build"), "ms");
    put("tulip.move.virtual_ms", virt_ms("tulip.move"), "ms");
    put("tulip.move.wall_ms", host_ms("tulip.move"), "ms");
    for name in paper::metric_names() {
        let unit = if name.ends_with("_pct") { "%" } else { "ms" };
        put(&name, first.paper.get(&name).copied().unwrap_or(0.0), unit);
    }
    let traced_wall = median(&traced.iter().map(|r| r.wall_s()).collect::<Vec<_>>());
    let untraced_wall = median(&measured(reps).map(|r| r.wall_s()).collect::<Vec<_>>());
    put(
        "trace.overhead_pct",
        if traced.is_empty() {
            0.0
        } else {
            (traced_wall / untraced_wall - 1.0) * 100.0
        },
        "%",
    );
    let moves: Vec<(f64, f64)> = measured(reps).flat_map(|r| r.rank0.moves.clone()).collect();
    let mh: Vec<f64> = moves.iter().map(|m| m.0 * 1e3).collect();
    let mv: Vec<f64> = moves.iter().map(|m| m.1 * 1e3).collect();
    put("move_wall_p50_ms", quantile(&mh, 0.50), "ms");
    put("move_wall_p99_ms", quantile(&mh, 0.99), "ms");
    put("move_virtual_p99_ms", quantile(&mv, 0.99), "ms");
    put(
        "failed_ops_frac",
        failed as f64 / attempted.max(1) as f64,
        "frac",
    );
    m
}
