//! The repository's benchmark: five workloads driven through the public
//! API from one process and one submitting thread.
//!
//! ```text
//! perfbench       --workload NAME --seed N --seconds S --work-dir DIR
//! perfbench-trace --workload NAME --seed N --seconds S --work-dir DIR
//! ```
//!
//! A run repeats rounds until `--seconds` have passed (at least
//! [`MIN_ROUNDS`]); the first round warms up and is left out of every
//! figure, though its outcomes are checked like the rest. Before each
//! round an untraced run times the workload's set-up alone for
//! [`SETUP_SLICE`]. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics untraced, the per-layer metrics traced. See `README.md` for
//! definitions.

pub mod gen;
pub mod probe;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Env, Inputs, Round, Workload};

/// Rounds per run at the least, the warm-up round included.
pub const MIN_ROUNDS: usize = 4;

/// Time spent setting up before each round (at least once). The mean
/// set-up time of such a block is one sample; `setup_s` is the median of
/// the run's samples. A mean smooths set-ups whose times fall into two
/// modes, and spreading the blocks over the whole run keeps a burst of
/// load on the host from moving `setup_s`.
pub const SETUP_SLICE: Duration = Duration::from_millis(100);
/// Pause before each block of set-up samples, so that the previous
/// round's teardown (exiting workers, freed memory) has settled.
pub const SETUP_SETTLE: Duration = Duration::from_millis(50);

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} expects a whole number"))
    };
    let name = get("workload")?.clone();
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    Ok(Args {
        workload,
        name,
        seed: num("seed")?,
        seconds: num("seconds")?,
        work_dir: PathBuf::from(get("work-dir")?),
    })
}

/// The `parsl-worker` binary: `PARSL_WORKER_BIN`, else a sibling of this
/// executable. Missing is an error up front, not a timeout in set-up.
fn worker_cmd() -> Result<Vec<String>, String> {
    let cmd = parsl::executors::default_worker_cmd();
    let found = cmd
        .first()
        .is_some_and(|p| std::path::Path::new(p).is_file());
    if !found {
        return Err(format!(
            "parsl-worker not found (looked for {cmd:?}); set PARSL_WORKER_BIN or build it \
             next to this binary with `cargo build --release --bin parsl-worker`"
        ));
    }
    Ok(cmd)
}

/// Linear-interpolated quantile of unsorted samples (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&samples.into_iter().collect::<Vec<_>>(), 0.5)
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// One round reduced to what the report needs. Raw samples are dropped
/// as each round ends, so the benchmark's own memory does not grow with
/// the number of rounds and skew `peak_rss_mb`.
struct Summary {
    traced: bool,
    /// Phase seconds per logical task.
    phase_per_task_s: f64,
    tasks_per_s: f64,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    cpu_us_per_task: f64,
    peak_rss_mb: f64,
    tasks: usize,
    failed: usize,
    counts: BTreeMap<&'static str, u64>,
    /// Monitor events seen (traced rounds only).
    events: Option<u64>,
    /// Per-layer metrics (traced rounds only).
    layers: Metrics,
}

impl Summary {
    fn of(r: Round) -> Summary {
        let tasks = r.tasks.max(1) as f64;
        Summary {
            traced: r.traced,
            phase_per_task_s: r.phase_s / tasks,
            tasks_per_s: tasks / r.phase_s,
            latency_p50_ms: quantile(&r.latencies_ms, 0.5),
            latency_p99_ms: quantile(&r.latencies_ms, 0.99),
            cpu_us_per_task: r.cpu_us / tasks,
            peak_rss_mb: r.peak_rss_kib as f64 / 1024.0,
            tasks: r.tasks,
            failed: r.failed,
            events: r.sink.as_ref().map(|s| s.summary().events),
            layers: if r.traced {
                layer_metrics(&r)
            } else {
                Metrics::new()
            },
            counts: r.counts,
        }
    }
}

/// The quantile over a run's measured rounds at which `latency_p50_ms`
/// is read for `w`; every other figure is the median over rounds.
///
/// `chain_tcp` has one call in flight, so its round p50 is the cost of a
/// single call. That cost falls into one of two modes about 40% apart,
/// and a round holds mostly one of them. From run to run, between a fifth
/// and two thirds of the rounds are in the fast mode, so the median over
/// rounds jumps between the modes; the 10th percentile stays in the fast
/// one. On the other workloads the round p50 is mostly queueing, which
/// varies smoothly between rounds, and the median is the steadier figure.
fn p50_round_quantile(w: Workload) -> f64 {
    if w == Workload::ChainTcp {
        0.1
    } else {
        0.5
    }
}

/// End-to-end metrics: medians over the set-up samples and over the
/// measured rounds (but see [`p50_round_quantile`]).
fn end_to_end(w: Workload, setups: &[f64], measured: &[&Summary]) -> Metrics {
    let med = |f: fn(&Summary) -> f64| median(measured.iter().map(|s| f(s)));
    let p50s: Vec<f64> = measured.iter().map(|s| s.latency_p50_ms).collect();
    let mut m = Metrics::new();
    m.insert("setup_s", (median(setups.iter().copied()), "s"));
    m.insert("tasks_per_s", (med(|s| s.tasks_per_s), "1/s"));
    m.insert(
        "latency_p50_ms",
        (quantile(&p50s, p50_round_quantile(w)), "ms"),
    );
    m.insert("latency_p99_ms", (med(|s| s.latency_p99_ms), "ms"));
    m.insert("cpu_us_per_task", (med(|s| s.cpu_us_per_task), "us"));
    m.insert("peak_rss_mb", (med(|s| s.peak_rss_mb), "MB"));
    m
}

/// Per-thread CPU layers, in the order the traced output lists them.
const THREAD_LAYERS: [&str; 6] = [
    "core.submit.cpu_us",
    "core.collector.cpu_us",
    "executors.htex.ix.cpu_us",
    "executors.htex.client.cpu_us",
    "nexus.tcp.cpu_us",
    "executors.threadpool.cpu_us",
];

/// Per-layer metrics of one traced round.
fn layer_metrics(r: &Round) -> Metrics {
    let tasks = r.tasks.max(1) as f64;
    let count = |k: &str| r.counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let sink = r.sink.as_ref().map(|s| s.summary()).unwrap_or_default();
    let (p2l, l2d) = (&sink.pending_to_launched_us, &sink.launched_to_done_us);
    let mut m = Metrics::new();
    m.insert(
        "core.app.call_us",
        (ratio(r.call_s * 1e6, r.calls as f64), "us"),
    );
    m.insert("core.fusion.map_call_s", (r.map_call_s, "s"));
    m.insert("core.future.wait_s", (r.wait_s, "s"));
    m.insert("core.memo.load_s", (r.load_s, "s"));
    for layer in THREAD_LAYERS {
        let us = r.thread_cpu_us.get(layer).copied().unwrap_or(0.0);
        m.insert(layer, (us / tasks, "us"));
    }
    m.insert("executors.worker.cpu_us", (r.worker_cpu_us / tasks, "us"));
    m.insert(
        "core.dfk.pending_to_launched_us.p50",
        (quantile(p2l, 0.5), "us"),
    );
    m.insert(
        "core.dfk.pending_to_launched_us.p99",
        (quantile(p2l, 0.99), "us"),
    );
    m.insert(
        "core.dfk.launched_to_done_us.p50",
        (quantile(l2d, 0.5), "us"),
    );
    m.insert(
        "core.dfk.launched_to_done_us.p99",
        (quantile(l2d, 0.99), "us"),
    );
    m.insert(
        "core.collector.events_per_batch",
        (
            ratio(sink.batch_events as f64, sink.batches as f64),
            "count",
        ),
    );
    m.insert(
        "core.monitor.events_per_task",
        (sink.events as f64 / tasks, "count"),
    );
    m.insert("core.dfk.retries", (sink.retries as f64, "count"));
    m.insert("core.memo.hits", (count("core.memo.hits"), "count"));
    m.insert("core.memo.misses", (count("core.memo.misses"), "count"));
    m.insert(
        "core.checkpoint.bytes_per_task",
        (count("core.checkpoint.bytes") / tasks, "B"),
    );
    m.insert("core.fusion.chunks", (count("core.fusion.chunks"), "count"));
    m.insert(
        "wire.args_bytes_per_task",
        (count("wire.args_bytes") / tasks, "B"),
    );
    m.insert("alloc.count_per_task", (r.allocs.0 as f64 / tasks, "count"));
    m.insert("alloc.bytes_per_task", (r.allocs.1 as f64 / tasks, "B"));
    m.insert(
        "proc.ctx_switches_per_task",
        (r.ctx_switches as f64 / tasks, "count"),
    );
    m
}

/// Per-layer metrics: medians over the traced rounds, plus the tracing
/// overhead — the traced rounds' median phase time over the untraced
/// rounds', minus one.
fn per_layer(measured: &[&Summary]) -> Metrics {
    let traced: Vec<&Summary> = measured.iter().copied().filter(|s| s.traced).collect();
    let mut m = Metrics::new();
    // A run cut short by a failed round may have no traced round; it
    // still lists every metric, as zero.
    let Some(first) = traced.first() else {
        m.extend(layer_metrics(&Round::default()));
        m.insert("trace.overhead_frac", (0.0, "ratio"));
        return m;
    };
    for (&name, &(_, unit)) in &first.layers {
        m.insert(
            name,
            (median(traced.iter().map(|s| s.layers[name].0)), unit),
        );
    }
    let phase = |traced: bool| {
        median(
            measured
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.phase_per_task_s),
        )
    };
    m.insert(
        "trace.overhead_frac",
        (phase(true) / phase(false) - 1.0, "ratio"),
    );
    m
}

/// Every exact count must take one value in all rounds that report it
/// (the monitor's events and the argument bytes come from traced rounds
/// only). Returns the names that drifted.
fn drifting_counts(rounds: &[Summary]) -> Vec<String> {
    let mut seen: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for r in rounds {
        for (&k, &v) in &r.counts {
            seen.entry(k).or_default().push(v);
        }
        if let Some(events) = r.events {
            seen.entry("core.monitor.events").or_default().push(events);
        }
    }
    seen.into_iter()
        .filter(|(_, v)| v.windows(2).any(|w| w[0] != w[1]))
        .map(|(k, _)| k.to_string())
        .collect()
}

fn render(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args, trace: bool) -> Result<String, String> {
    let worker_cmd = if args.workload.uses_tcp() {
        worker_cmd()?
    } else {
        Vec::new()
    };
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {:?}: {e}", args.work_dir))?;
    let env = Env {
        worker_cmd,
        work_dir: args.work_dir.clone(),
    };
    let inputs = Inputs::generate(args.workload, args.seed);

    let mut rounds: Vec<Summary> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let outcome = (|| -> Result<Option<Summary>, String> {
        let prep = workloads::prepare(args.workload, &inputs, &env)?.map(Summary::of);
        // One cold set-up, dropped.
        if !trace {
            workloads::setup_only(args.workload, &env)?;
        }
        let start = Instant::now();
        let budget = Duration::from_secs(args.seconds);
        while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
            // Each round and set-up block starts from a trimmed heap. Left
            // untrimmed, a heavy round's freed memory made about a quarter
            // of the set-ups after it five times slower.
            probe::trim_heap();
            // Traced runs report no `setup_s`, so they skip the samples.
            if !trace {
                std::thread::sleep(SETUP_SETTLE);
                let t = Instant::now();
                let mut block = Vec::new();
                while block.is_empty() || t.elapsed() < SETUP_SLICE {
                    block.push(workloads::setup_only(args.workload, &env)?);
                }
                setups.push(block.iter().sum::<f64>() / block.len() as f64);
            }
            // Traced runs alternate traced and untraced rounds so that
            // the tracing overhead is measured within the run.
            let traced = trace && rounds.len() % 2 == 1;
            let r = workloads::round(args.workload, &inputs, &env, traced)?;
            eprintln!(
                "{} round {}: setup {:.4}s phase {:.4}s p50 {:.4}ms p99 {:.4}ms peak {} KiB tasks {} failed {}{}",
                args.name,
                rounds.len(),
                r.setup_s,
                r.phase_s,
                quantile(&r.latencies_ms, 0.5),
                quantile(&r.latencies_ms, 0.99),
                r.peak_rss_kib,
                r.tasks,
                r.failed,
                if r.traced { " (traced)" } else { "" }
            );
            let s = Summary::of(r);
            let stop = s.failed > 0;
            rounds.push(s);
            if stop {
                break; // a broken round would only repeat
            }
        }
        eprintln!(
            "{} setups: {} block means, median {:.6}s",
            args.name,
            setups.len(),
            median(setups.iter().copied())
        );
        Ok(prep)
    })();
    workloads::cleanup(&env);
    // The preparation round is checked but neither measured nor compared.
    let prep = outcome?;

    let checked = || rounds.iter().chain(&prep);
    let attempted: usize = checked().map(|r| r.tasks).sum();
    let failed: usize = checked().map(|r| r.failed).sum();
    let drift = drifting_counts(&rounds);
    if !drift.is_empty() {
        eprintln!("exact counts differ between rounds: {}", drift.join(", "));
    }
    // Leave out the warm-up round, unless a failure stopped the run there.
    let measured: Vec<&Summary> = rounds.iter().skip(usize::from(rounds.len() > 1)).collect();
    let metrics = if trace {
        per_layer(&measured)
    } else {
        end_to_end(args.workload, &setups, &measured)
    };
    Ok(render(
        failed == 0 && drift.is_empty(),
        attempted.max(1),
        failed,
        &metrics,
    ))
}

/// Entry point shared by both binaries; `tracing_binary` is true for the
/// one that installs the counting allocator.
pub fn main(tracing_binary: bool) -> std::process::ExitCode {
    match parse_args().and_then(|a| run(&a, tracing_binary)) {
        Ok(line) => {
            println!("{line}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
