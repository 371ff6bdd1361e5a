//! # wallbench — wall-clock benchmark of the SpRWL service stack
//!
//! Runs three named workloads against the real stack on real threads in a
//! closed loop, checks that results are correct, and reports every metric
//! by name with its unit. See `README.md` in this directory for the
//! workloads, the metrics and how each layer metric maps to an end-to-end
//! one.

#![forbid(unsafe_code)]

mod driver;
mod oracle;
mod sample;
mod spans;
mod trials;
mod world;

use std::time::{Duration, Instant};

use htm_sim::SchedulerKind;
use sprwl_locks::{AbortCause, CommitMode, SessionStats};
use sprwl_workloads::redis::{KeyDist, PayloadDist, RedisSpec};

use driver::{Mode, RunOut};
use sample::{median, percentile, Reservoir};
use spans::{Name, Tracer};
use world::{KvWorld, TpccWorld, World};

/// Client threads: one per core of the 2-core reference host.
pub const CLIENTS: usize = 2;
/// An untraced run sets up at least `SETUPS.0` and at most `SETUPS.1`
/// times, stopping once set-ups took [`SETUP_BUDGET`]; `setup_s` is the
/// median. A one-millisecond set-up is mostly allocator noise, so cheap
/// set-ups are repeated more.
const SETUPS: (usize, usize) = (3, 50);
/// Set-up time after which no further set-up is started.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Ops per client in each exact-count pass.
const DET_OPS: u64 = 1000;
/// Schedule seed of the exact-count pass.
const DET_SCHEDULE_SEED: u64 = 0x5EED;

/// The end-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run, with their units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("server.guards.read_admit_ns", "ns"),
    ("server.guards.write_ready_ns", "ns"),
    ("server.guards.pending_polls_per_op", "count/op"),
    ("server.kv.get_ns", "ns"),
    ("server.kv.accesses_per_get", "count/op"),
    ("server.kv.accesses_per_set", "count/op"),
    ("core.write_section_ns", "ns"),
    ("core.write_body_ns", "ns"),
    ("core.write_overhead_ns", "ns"),
    ("core.write_attempts_per_section", "count/op"),
    ("core.abort_ratio", "ratio"),
    ("core.aborts_per_1k.conflict", "count/1k"),
    ("core.aborts_per_1k.capacity", "count/1k"),
    ("core.aborts_per_1k.explicit", "count/1k"),
    ("core.aborts_per_1k.reader", "count/1k"),
    ("core.aborts_per_1k.conflict_rot", "count/1k"),
    ("core.aborts_per_1k.capacity_rot", "count/1k"),
    ("core.commit_pct.htm", "%"),
    ("core.commit_pct.rot", "%"),
    ("core.commit_pct.gl", "%"),
    ("core.commit_pct.unins", "%"),
    ("core.read_section_ns", "ns"),
    ("core.read_body_ns", "ns"),
    ("core.read_attempts_per_section", "count/op"),
    ("workloads.tpcc.stock_level_ns", "ns"),
    ("workloads.tpcc.order_status_ns", "ns"),
    ("workloads.tpcc.payment_ns", "ns"),
    ("workloads.tpcc.new_order_ns", "ns"),
    ("workloads.tpcc.delivery_ns", "ns"),
    ("htm.accesses_per_op", "count/op"),
    ("htm.ns_per_access", "ns"),
    ("bench.span_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Reader-dominated KV service: 100 k keys, zipfian, GET 90 / SET 9 /
    /// MSET-of-4 1.
    KvRead,
    /// Write-heavy KV service: 1 M keys, uniform, GET 20 / SET 70 /
    /// MSET-of-4 10.
    KvWrite,
    /// TPC-C, the paper's mix, one warehouse per client.
    Tpcc,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::KvRead, Workload::KvWrite, Workload::Tpcc];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvRead => "kv-read",
            Workload::KvWrite => "kv-write",
            Workload::Tpcc => "tpcc",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn redis(self) -> RedisSpec {
        match self {
            Workload::KvRead => RedisSpec {
                keyspace: 100_000,
                get_pct: 90,
                set_pct: 9,
                mset_keys: 4,
                payload: PayloadDist::default(),
                key_dist: KeyDist::Zipfian { theta: 0.99 },
            },
            _ => RedisSpec {
                keyspace: 1_000_000,
                get_pct: 20,
                set_pct: 70,
                mset_keys: 4,
                payload: PayloadDist::default(),
                key_dist: KeyDist::Uniform,
            },
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Set in the child processes of an untraced run: measure one trial
    /// of this many milliseconds (see `trials.rs`).
    pub trial_ms: Option<u64>,
}

/// Usage line for errors.
pub const USAGE: &str =
    "usage: wallbench --workload <kv-read|kv-write|tpcc> --seed <u64> --seconds <1..=60> --trace <0|1>";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`, all
    /// required.
    ///
    /// # Errors
    ///
    /// Describes the first missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut trial_ms = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {val:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&val).ok_or_else(bad)?),
                "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = val.parse::<u64>().map_err(|_| bad())?;
                    if !(1..=60).contains(&s) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--trial-ms" => trial_ms = Some(val.parse::<u64>().map_err(|_| bad())?),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            trial_ms,
        })
    }
}

/// One run's result.
#[derive(Debug)]
pub struct Report {
    /// No check failed.
    pub correct: bool,
    /// Ops run.
    pub attempted: u64,
    /// Ops (and post-run checks) that failed.
    pub failed: u64,
    /// `(name, value, unit)`, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Failure messages.
    pub errors: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// A failed result for a run the watchdog ended.
pub fn stall_report(attempted: u64) -> Report {
    Report {
        correct: false,
        attempted: attempted.max(1),
        failed: 1,
        metrics: Vec::new(),
        notes: Vec::new(),
        errors: vec![format!(
            "stall: no op completed for {} s; the run is wedged",
            driver::STALL.as_secs()
        )],
    }
}

/// Runs the benchmark `args` describe. `on_stall` ends a wedged run.
pub fn run(args: &Args, on_stall: &(dyn Fn(u64) + Sync)) -> Report {
    if !args.trace && args.trial_ms.is_none() {
        return trials::run(args);
    }
    match args.workload {
        Workload::Tpcc => measure(args, TpccWorld::new, on_stall),
        w => {
            let spec = w.redis();
            measure(args, move |s| KvWorld::new(spec.clone(), s), on_stall)
        }
    }
}

fn clients<W: World>(w: &W, seed: u64) -> Vec<W::Client> {
    (0..CLIENTS).map(|i| w.client(i, seed)).collect()
}

fn measure<W: World>(
    args: &Args,
    build: impl Fn(SchedulerKind) -> W,
    on_stall: &(dyn Fn(u64) + Sync),
) -> Report {
    if args.trace {
        return measure_traced(args, build, on_stall);
    }
    let mut setup_s = Vec::new();
    let mut world = None;
    while setup_s.len() < SETUPS.0
        || (setup_s.len() < SETUPS.1 && setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        drop(world.take());
        let t = Instant::now();
        world = Some(build(SchedulerKind::Os));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up");
    let mode = Mode::Wall {
        window: Duration::from_millis(args.trial_ms.unwrap_or(args.seconds * 1000)),
        traced: false,
    };
    let out = driver::run(&world, clients(&world, args.seed), mode, on_stall);
    let errors = verify(&world, &out);
    let rates: Vec<f64> = out.slice_rates(mode).into_iter().map(|(r, _)| r).collect();
    let reads: Vec<&Reservoir> = out.clients.iter().map(|c| &c.reads).collect();
    let writes: Vec<&Reservoir> = out.clients.iter().map(|c| &c.writes).collect();
    let us = |parts: &[&Reservoir], q| percentile(parts, q) / 1e3;
    let n_reads: u64 = reads.iter().map(|r| r.seen()).sum();
    let n_writes: u64 = writes.iter().map(|r| r.seen()).sum();
    let (attempted, failed) = out.totals();
    let values = [
        median(&rates),
        us(&reads, 0.50),
        us(&reads, 0.99),
        us(&writes, 0.50),
        us(&writes, 0.99),
        median(&setup_s),
        peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect();
    let failed = failed + errors.len() as u64;
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes: vec![
            format!("failed_ratio {} ratio", failed as f64 / attempted.max(1) as f64),
            format!("read_samples {n_reads} count (read_p50_us, read_p99_us)"),
            format!("write_samples {n_writes} count (write_p50_us, write_p99_us)"),
            format!(
                "slice ops/s: min {:.0}, max {:.0}",
                rates.iter().copied().fold(f64::INFINITY, f64::min),
                rates.iter().copied().fold(0.0, f64::max)
            ),
            format!(
                "setup_s is the median of {} set-ups; ops_per_s the median of {} slices of {} ms after {} ms warm-up",
                setup_s.len(),
                rates.len(),
                driver::SLICE.as_millis(),
                driver::WARMUP.as_millis()
            ),
        ],
        errors,
    }
}

fn verify<W: World>(w: &W, out: &RunOut<W::Client>) -> Vec<String> {
    let clients: Vec<&W::Client> = out.clients.iter().map(|c| &c.client).collect();
    w.verify(&clients)
}

fn measure_traced<W: World>(
    args: &Args,
    build: impl Fn(SchedulerKind) -> W,
    on_stall: &(dyn Fn(u64) + Sync),
) -> Report {
    let world = build(SchedulerKind::Os);
    let mode = Mode::Wall {
        window: Duration::from_secs(args.seconds),
        traced: true,
    };
    let wall = driver::run(&world, clients(&world, args.seed), mode, on_stall);
    let mut errors = verify(&world, &wall);
    drop(world);

    // The exact-count pass: the same driver, serialized under a fixed
    // schedule seed, twice. Its counts must repeat bit for bit.
    let det_mode = Mode::Det { ops: DET_OPS };
    let passes: Vec<RunOut<W::Client>> = (0..2)
        .map(|_| {
            let w = build(SchedulerKind::Deterministic {
                schedule_seed: DET_SCHEDULE_SEED,
            });
            let out = driver::run(&w, clients(&w, args.seed), det_mode, on_stall);
            errors.extend(verify(&w, &out));
            out
        })
        .collect();
    let reproducible = exact_counts(&passes[0]) == exact_counts(&passes[1]);
    if !reproducible {
        errors.push("exact-count pass: two runs with the same seeds gave different counts".into());
    }

    let rates = wall.slice_rates(mode);
    let rate = |traced: bool| {
        median(
            &rates
                .iter()
                .filter(|r| r.1 == traced)
                .map(|r| r.0)
                .collect::<Vec<_>>(),
        )
    };
    let (untraced, traced) = (rate(false), rate(true));
    let w = tracers(&wall);
    let d = tracers(&passes[0]);
    let mut stats = SessionStats::default();
    for c in &passes[0].clients {
        stats.merge(&c.stats);
    }
    let sections = stats.total_commits() as f64;
    let per_1k = |cause| ratio(stats.aborts_of(cause) as f64 * 1e3, sections);
    let pct = |mode| ratio(stats.commits_in(mode) as f64 * 100.0, sections);
    let bodies = [Name::WriteBody, Name::ReadBody, Name::KvGet];
    let ops = total(&w, Name::Op, |a| a.count) as f64;
    let values = [
        p50(&w, Name::GuardRead),
        p50(&w, Name::GuardWriteReady),
        ratio(w.iter().map(|t| t.pending_polls).sum::<u64>() as f64, ops),
        p50(&w, Name::KvGet),
        per_span(&d, Name::KvGet),
        per_span(&d, Name::KvBump),
        p50(&w, Name::WriteSection),
        p50_by(&w, |t| &t.committed_write_body),
        p50_by(&w, |t| &t.write_overhead),
        ratio(
            total(&d, Name::WriteBody, |a| a.count) as f64,
            total(&d, Name::WriteSection, |a| a.count) as f64,
        ),
        stats.abort_ratio(),
        per_1k(AbortCause::Conflict),
        per_1k(AbortCause::Capacity),
        per_1k(AbortCause::Explicit),
        per_1k(AbortCause::Reader),
        per_1k(AbortCause::ConflictRot),
        per_1k(AbortCause::CapacityRot),
        pct(CommitMode::Htm),
        pct(CommitMode::Rot),
        pct(CommitMode::Gl),
        pct(CommitMode::Unins),
        p50(&w, Name::ReadSection),
        p50_by(&w, |t| &t.committed_read_body),
        ratio(
            total(&d, Name::ReadBody, |a| a.count) as f64,
            total(&d, Name::ReadSection, |a| a.count) as f64,
        ),
        p50(&w, Name::StockLevel),
        p50(&w, Name::OrderStatus),
        p50(&w, Name::Payment),
        p50(&w, Name::NewOrder),
        p50(&w, Name::Delivery),
        per_span(&d, Name::Op),
        ratio(
            bodies
                .iter()
                .map(|&n| total(&w, n, |a| a.dur_ns))
                .sum::<u64>() as f64,
            bodies.iter().map(|&n| total(&w, n, |a| a.acc)).sum::<u64>() as f64,
        ),
        ratio((untraced - traced) * 100.0, untraced),
        ratio(
            total(&w, Name::Op, |a| a.self_ns) as f64 * 100.0,
            total(&w, Name::Op, |a| a.dur_ns) as f64,
        ),
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect();
    let mut notes = vec![
        format!(
            "traced ops {ops} in {} traced slices; untraced {untraced:.0} ops/s, traced {traced:.0} ops/s",
            rates.iter().filter(|r| r.1).count()
        ),
        format!(
            "exact-count pass: {DET_OPS} ops/client, schedule seed {DET_SCHEDULE_SEED:#x}, two runs {}",
            if reproducible { "identical" } else { "DIFFER" }
        ),
    ];
    match write_spans(args.workload, &wall) {
        Ok(path) => notes.push(format!("spans written to {path}")),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    let mut attempted = 0;
    let mut failed = errors.len() as u64;
    for out in std::iter::once(&wall).chain(&passes) {
        let (a, f) = out.totals();
        attempted += a;
        failed += f;
    }
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        errors,
    }
}

fn tracers<C>(out: &RunOut<C>) -> Vec<&Tracer> {
    out.clients.iter().map(|c| &c.tracer).collect()
}

fn total(trs: &[&Tracer], name: Name, f: impl Fn(&spans::Agg) -> u64) -> u64 {
    trs.iter().map(|t| f(&t.agg[name as usize])).sum()
}

/// Median span duration of `name`, ns.
fn p50(trs: &[&Tracer], name: Name) -> f64 {
    p50_by(trs, |t| &t.agg[name as usize].durs)
}

fn p50_by(trs: &[&Tracer], f: impl Fn(&Tracer) -> &Reservoir) -> f64 {
    let parts: Vec<&Reservoir> = trs.iter().map(|&t| f(t)).collect();
    percentile(&parts, 0.5)
}

/// Accesses per span of `name`.
fn per_span(trs: &[&Tracer], name: Name) -> f64 {
    ratio(
        total(trs, name, |a| a.acc) as f64,
        total(trs, name, |a| a.count) as f64,
    )
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every count the exact-count pass reports, per client.
fn exact_counts<C>(out: &RunOut<C>) -> Vec<u64> {
    let mut v = Vec::new();
    for c in &out.clients {
        for a in &c.tracer.agg {
            v.extend([a.count, a.acc]);
        }
        v.push(c.tracer.pending_polls);
        for mode in CommitMode::ALL {
            v.extend([
                c.stats.commits_by(sprwl_locks::Role::Reader, mode),
                c.stats.commits_by(sprwl_locks::Role::Writer, mode),
            ]);
        }
        v.extend(AbortCause::ALL.iter().map(|&a| c.stats.aborts_of(a)));
    }
    v
}

/// Writes the traced run's kept spans as JSON lines under `out/`.
fn write_spans<C>(workload: Workload, out: &RunOut<C>) -> std::io::Result<String> {
    use std::io::Write;
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}.jsonl", workload.name());
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, c) in out.clients.iter().enumerate() {
        c.tracer.write_jsonl(i, &mut f)?;
    }
    f.flush()?;
    Ok(path)
}

/// Peak resident memory of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line of host provenance: cores, CPU model, commit and run settings.
pub fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "# wallbench workload={} seed={} seconds={} trace={} clients={CLIENTS} nproc={nproc} cpu=\"{cpu}\" commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    )
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let id = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        }),
        None => Some(head),
    };
    match id.map(|s| s.trim().to_string()) {
        Some(s) if !s.is_empty() => s,
        _ => "unknown".into(),
    }
}
