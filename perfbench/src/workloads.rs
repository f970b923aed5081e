//! The five workloads, each one round at a time.
//!
//! A round builds a fresh DataFlowKernel (so nothing learnt in one round,
//! such as service-time samples that size map chunks, carries into the
//! next), runs the timed phase from one submitting thread, checks every
//! outcome against the oracle, and shuts the kernel down. Every wait has
//! a deadline: a future that never resolves counts as failed and the
//! round still ends.

use crate::gen::{self, Dag, Expect, Parent};
use crate::probe::{self, Sink, ThreadStat};
use parsl::core::{
    AppError, AppFuture, AppOptions, DataFlowKernel, Dep, Executor, MonitorSink, ParslError,
    TaskError,
};
use parsl::executors::{HtexConfig, HtexExecutor, TcpHtexOptions, ThreadPoolExecutor};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a round may wait for its results before counting the rest as
/// failed.
const RESULT_DEADLINE: Duration = Duration::from_secs(30);
/// How long a TCP deployment may take to register its worker.
const REGISTER_DEADLINE: Duration = Duration::from_secs(20);

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FanoutTcp,
    ChainTcp,
    DagCheckpoint,
    DagResume,
    MapTcp,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "fanout_tcp" => Workload::FanoutTcp,
            "chain_tcp" => Workload::ChainTcp,
            "dag_checkpoint" => Workload::DagCheckpoint,
            "dag_resume" => Workload::DagResume,
            "map_tcp" => Workload::MapTcp,
            _ => return None,
        })
    }

    pub fn uses_tcp(self) -> bool {
        matches!(
            self,
            Workload::FanoutTcp | Workload::ChainTcp | Workload::MapTcp
        )
    }
}

/// The generated inputs of one run.
pub enum Inputs {
    /// `fanout_tcp`: the gate's value and one value per child.
    Fanout { gate: u64, xs: Vec<u64> },
    /// `chain_tcp` and `map_tcp`: one value per call or item.
    Values(Vec<u64>),
    /// `dag_checkpoint` and `dag_resume`: the DAG and its oracle.
    Dag { dag: Dag, expected: Vec<Expect> },
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::FanoutTcp => {
                let mut xs = gen::values(seed, gen::FANOUT_TASKS + 1);
                let gate = xs.pop().expect("one extra value");
                Inputs::Fanout { gate, xs }
            }
            Workload::ChainTcp => Inputs::Values(gen::values(seed, gen::CHAIN_CALLS)),
            Workload::MapTcp => Inputs::Values(gen::values(seed, gen::MAP_ITEMS)),
            Workload::DagCheckpoint | Workload::DagResume => {
                let dag = Dag::generate(seed);
                let expected = dag.expected();
                Inputs::Dag { dag, expected }
            }
        }
    }
}

/// Where a run may put files, and how to start workers.
pub struct Env {
    pub worker_cmd: Vec<String>,
    pub work_dir: PathBuf,
}

/// Everything one round measured. Fields under "traced" stay empty in
/// untraced rounds.
#[derive(Default)]
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    pub phase_s: f64,
    /// Logical tasks (map items) the phase completed or attempted.
    pub tasks: usize,
    pub latencies_ms: Vec<f64>,
    /// Outcomes that differ from the oracle, or never resolved.
    pub failed: usize,
    /// Client plus reaped-worker CPU from set-up through shutdown,
    /// microseconds. The benchmark's own accounting afterwards is left out.
    pub cpu_us: f64,
    /// Reaped-worker CPU over the round, microseconds.
    pub worker_cpu_us: f64,
    /// The client's peak resident set size during the round, KiB.
    pub peak_rss_kib: u64,
    /// Exact counts that must repeat in every round of a run.
    pub counts: BTreeMap<&'static str, u64>,
    // --- traced ---
    pub sink: Option<Arc<Sink>>,
    /// Wire-encoded argument bytes of every task handed to an executor.
    args_bytes: Option<Arc<AtomicU64>>,
    pub call_s: f64,
    pub calls: u64,
    pub wait_s: f64,
    pub map_call_s: f64,
    pub load_s: f64,
    pub allocs: (u64, u64),
    /// Per-layer thread CPU and context switches, read before
    /// shutdown.
    pub thread_cpu_us: BTreeMap<&'static str, f64>,
    pub ctx_switches: u64,
    threads_at_phase: HashMap<u32, ThreadStat>,
    allocs_at_phase: (u64, u64),
    cpu_at_start: (f64, f64),
}

impl Round {
    fn new(traced: bool) -> Round {
        probe::reset_vm_hwm();
        Round {
            traced,
            sink: traced.then(|| Arc::new(Sink::default())),
            args_bytes: traced.then(|| Arc::new(AtomicU64::new(0))),
            cpu_at_start: probe::process_cpu_us(),
            ..Default::default()
        }
    }

    fn monitor(&self) -> Option<Arc<dyn MonitorSink>> {
        self.sink.clone().map(|s| s as Arc<dyn MonitorSink>)
    }

    /// `e` as the kernel sees it: behind a [`probe::Tap`] in traced rounds.
    fn executor(&self, e: Arc<dyn Executor>) -> Arc<dyn Executor> {
        match &self.args_bytes {
            Some(bytes) => Arc::new(probe::Tap::new(e, Arc::clone(bytes))),
            None => e,
        }
    }

    /// An `App::call`, timed in traced rounds.
    fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.call_s += t.elapsed().as_secs_f64();
        self.calls += 1;
        out
    }

    /// A blocking wait for results, timed in traced rounds.
    fn wait<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.wait_s += t.elapsed().as_secs_f64();
        out
    }

    fn phase_start(&mut self) {
        if self.traced {
            self.threads_at_phase = probe::threads();
            self.allocs_at_phase = probe::alloc_counting(true);
        }
    }

    fn phase_end(&mut self) {
        if self.traced {
            let (n, b) = probe::alloc_counting(false);
            self.allocs = (n - self.allocs_at_phase.0, b - self.allocs_at_phase.1);
        }
    }

    /// Shut the kernel down, reading per-thread CPU and context switches
    /// first, while its threads are still alive (threads that existed
    /// when the phase began count from there, threads born since in
    /// full), and the round's CPU and peak memory after, once the
    /// workers are reaped.
    fn shutdown(&mut self, dfk: &Arc<DataFlowKernel>) {
        if self.traced {
            for (tid, t) in probe::threads() {
                let (cpu0, ctx0) = self
                    .threads_at_phase
                    .get(&tid)
                    .map_or((0.0, 0), |s| (s.cpu_us, s.ctx_switches));
                self.ctx_switches += t.ctx_switches.saturating_sub(ctx0);
                if let Some(layer) = probe::thread_layer(&t) {
                    *self.thread_cpu_us.entry(layer).or_default() += t.cpu_us - cpu0;
                }
            }
        }
        dfk.shutdown();
        if let Some(bytes) = &self.args_bytes {
            self.counts
                .insert("wire.args_bytes", bytes.load(Ordering::Relaxed));
        }
        self.peak_rss_kib = probe::vm_hwm_kib();
        let (own, children) = probe::process_cpu_us();
        self.worker_cpu_us = children - self.cpu_at_start.1;
        self.cpu_us = own - self.cpu_at_start.0 + self.worker_cpu_us;
    }
}

/// Run one round of `w`.
pub fn round(w: Workload, inputs: &Inputs, env: &Env, traced: bool) -> Result<Round, String> {
    let mut r = Round::new(traced);
    match (w, inputs) {
        (Workload::FanoutTcp, Inputs::Fanout { gate, xs }) => fanout_tcp(&mut r, env, *gate, xs)?,
        (Workload::ChainTcp, Inputs::Values(xs)) => chain_tcp(&mut r, env, xs)?,
        (Workload::MapTcp, Inputs::Values(xs)) => map_tcp(&mut r, env, xs)?,
        (Workload::DagCheckpoint, Inputs::Dag { dag, expected }) => {
            let path = env
                .work_dir
                .join(format!("dag-{}.ckpt", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let res = dag_round(&mut r, dag, expected, DagMode::Write(&path));
            let _ = std::fs::remove_file(&path);
            res?
        }
        (Workload::DagResume, Inputs::Dag { dag, expected }) => dag_round(
            &mut r,
            dag,
            expected,
            DagMode::Resume(&resume_checkpoint(env)),
        )?,
        _ => unreachable!("inputs are generated for their workload"),
    }
    Ok(r)
}

/// Build the kernel a round of `w` uses and shut it down again; returns
/// the set-up time. Runs take their `setup_s` samples this way, apart
/// from the rounds, so that no sample includes a heavy round's teardown.
pub fn setup_only(w: Workload, env: &Env) -> Result<f64, String> {
    let mut r = Round::new(false);
    let dag_ckpt = env
        .work_dir
        .join(format!("setup-{}.ckpt", std::process::id()));
    let dfk = match w {
        Workload::FanoutTcp => tcp_kernel(&mut r, env, true),
        Workload::ChainTcp | Workload::MapTcp => tcp_kernel(&mut r, env, false),
        Workload::DagCheckpoint => dag_kernel(&mut r, DagMode::Write(&dag_ckpt)),
        Workload::DagResume => dag_kernel(&mut r, DagMode::Resume(&resume_checkpoint(env))),
    }?;
    dfk.shutdown();
    let _ = std::fs::remove_file(&dag_ckpt);
    Ok(r.setup_s)
}

/// The checkpoint `dag_resume` replays, written by [`prepare`].
fn resume_checkpoint(env: &Env) -> PathBuf {
    env.work_dir
        .join(format!("resume-{}.ckpt", std::process::id()))
}

/// Untimed preparation before the first round: `dag_resume` writes the
/// checkpoint it will replay with a full `dag_checkpoint` round (whose
/// outcomes are checked like any other). Returns that round, if any.
pub fn prepare(w: Workload, inputs: &Inputs, env: &Env) -> Result<Option<Round>, String> {
    let (Workload::DagResume, Inputs::Dag { dag, expected }) = (w, inputs) else {
        return Ok(None);
    };
    let path = resume_checkpoint(env);
    let _ = std::fs::remove_file(&path);
    let mut r = Round::new(false);
    dag_round(&mut r, dag, expected, DagMode::Write(&path))?;
    Ok(Some(r))
}

/// Remove whatever [`prepare`] left behind.
pub fn cleanup(env: &Env) {
    let _ = std::fs::remove_file(resume_checkpoint(env));
}

/// A one-shot gate: the gate task blocks its worker until the main
/// thread has submitted everything behind it.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn wait(&self) {
        let open = self.open.lock().expect("latch lock poisoned");
        // Bounded, so a lost release cannot hang the worker forever.
        let _ = self
            .cv
            .wait_timeout_while(open, RESULT_DEADLINE, |open| !*open)
            .expect("latch lock poisoned");
    }

    fn release(&self) {
        *self.open.lock().expect("latch lock poisoned") = true;
        self.cv.notify_all();
    }
}

fn pinned(executor: &str, memoize: Option<bool>) -> AppOptions {
    AppOptions {
        executor: Some(executor.into()),
        memoize,
        ..Default::default()
    }
}

/// The gate app on the in-process thread pool, never memoized.
fn gate_app(dfk: &Arc<DataFlowKernel>, latch: &Arc<Latch>) -> parsl::core::App<(u64,), u64> {
    let latch = Arc::clone(latch);
    dfk.python_app_cfg(
        "bench_gate",
        pinned("threads", Some(false)),
        move |g: u64| {
            latch.wait();
            Ok(g)
        },
    )
}

fn remaining(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

/// Build an HTEX over loopback TCP with one spawned `parsl-worker`
/// process of one worker slot (plus, for gated workloads, a one-thread
/// pool for the gate), and wait until the worker has registered.
fn tcp_kernel(r: &mut Round, env: &Env, gate_pool: bool) -> Result<Arc<DataFlowKernel>, String> {
    let t0 = Instant::now();
    let htex = Arc::new(
        HtexExecutor::tcp(
            HtexConfig {
                label: "htex".into(),
                workers_per_node: 1,
                prefetch: 64,
                batch_size: 64,
                heartbeat_period: Duration::from_millis(100),
                // Generous: a busy two-core box must not lose its worker.
                heartbeat_threshold: Duration::from_secs(10),
                nodes_per_block: 1,
                min_blocks: 1,
                max_blocks: 1,
                init_blocks: 1,
                seed: 0,
            },
            TcpHtexOptions {
                worker_cmd: env.worker_cmd.clone(),
                // A worker orphaned by a crashed client exits quickly.
                reconnect_window: Duration::from_millis(500),
                ..Default::default()
            },
        )
        .map_err(|e| format!("bind loopback hub: {e}"))?,
    );
    let mut b = DataFlowKernel::builder().executor_arc(r.executor(htex.clone()));
    if gate_pool {
        b = b.executor_arc(r.executor(Arc::new(ThreadPoolExecutor::new(1))));
    }
    if let Some(m) = r.monitor() {
        b = b.monitor(m);
    }
    let dfk = b.build().map_err(|e| format!("build kernel: {e}"))?;
    while htex.connected_workers() < 1 {
        if t0.elapsed() > REGISTER_DEADLINE {
            dfk.shutdown();
            return Err("parsl-worker did not register in time".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    r.setup_s = t0.elapsed().as_secs_f64();
    Ok(dfk)
}

/// One gate task releases N independent children on HTEX over TCP.
fn fanout_tcp(r: &mut Round, env: &Env, gate_value: u64, xs: &[u64]) -> Result<(), String> {
    let dfk = tcp_kernel(r, env, true)?;
    let latch = Arc::new(Latch::default());
    let gate = gate_app(&dfk, &latch);
    // Runs in the worker process as the builtin `add`.
    let add = dfk.python_app_cfg("add", pinned("htex", None), |a: u64, b: u64| Ok(a + b));

    r.phase_start();
    let t0 = Instant::now();
    let g = r.call(|| gate.call((Dep::value(gate_value),)));
    let mut submitted = Vec::with_capacity(xs.len());
    let mut futs = Vec::with_capacity(xs.len());
    for &x in xs {
        submitted.push(Instant::now());
        futs.push(r.call(|| add.call((Dep::future(g.clone()), Dep::value(x)))));
    }
    latch.release();
    let deadline = t0 + RESULT_DEADLINE;
    r.latencies_ms.reserve(xs.len());
    for ((f, &x), at) in futs.iter().zip(xs).zip(&submitted) {
        let v = r.wait(|| f.result_timeout(remaining(deadline)));
        r.latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
        if v.ok() != Some(gate_value + x) {
            r.failed += 1;
        }
    }
    r.phase_s = t0.elapsed().as_secs_f64();
    r.phase_end();
    r.tasks = xs.len();
    r.shutdown(&dfk);
    Ok(())
}

/// A closed loop: one caller, one `noop` in flight at a time.
fn chain_tcp(r: &mut Round, env: &Env, xs: &[u64]) -> Result<(), String> {
    let dfk = tcp_kernel(r, env, false)?;
    // Runs in the worker process as the builtin `noop`.
    let noop = dfk.python_app_cfg("noop", pinned("htex", None), |x: u64| Ok(x));

    r.phase_start();
    let t0 = Instant::now();
    let deadline = t0 + RESULT_DEADLINE;
    r.latencies_ms.reserve(xs.len());
    for &x in xs {
        let at = Instant::now();
        let f = r.call(|| noop.call((Dep::value(x),)));
        let v = r.wait(|| f.result_timeout(remaining(deadline)));
        r.latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
        if v.ok() != Some(x) {
            r.failed += 1;
        }
    }
    r.phase_s = t0.elapsed().as_secs_f64();
    r.phase_end();
    r.tasks = xs.len();
    r.shutdown(&dfk);
    Ok(())
}

/// `App::map` of `noop` over M items on HTEX over TCP.
fn map_tcp(r: &mut Round, env: &Env, xs: &[u64]) -> Result<(), String> {
    let dfk = tcp_kernel(r, env, false)?;
    let noop = dfk.python_app_cfg("noop", pinned("htex", None), |x: u64| Ok(x));

    r.phase_start();
    let t0 = Instant::now();
    // `map` submits through the kernel directly, not through `App::call`.
    let handle = noop.map(xs.iter().copied());
    if r.traced {
        r.map_call_s = t0.elapsed().as_secs_f64();
    }
    let done = r.wait(|| handle.wait_timeout(RESULT_DEADLINE));
    if done {
        let results = r.wait(|| handle.results());
        r.failed += results
            .iter()
            .zip(xs)
            .filter(|(v, &x)| v.as_ref().ok() != Some(&x))
            .count();
    } else {
        r.failed += xs.len();
    }
    r.phase_s = t0.elapsed().as_secs_f64();
    r.latencies_ms.push(r.phase_s * 1e3);
    r.phase_end();
    r.tasks = xs.len();
    r.shutdown(&dfk);
    r.counts
        .insert("core.fusion.chunks", handle.chunk_count() as u64);
    Ok(())
}

#[derive(Clone, Copy)]
enum DagMode<'a> {
    /// Memoize with a write-through checkpoint to this file.
    Write(&'a Path),
    /// Memoize, seeded from this checkpoint file.
    Resume(&'a Path),
}

/// A memoizing kernel on a one-thread pool, either writing a checkpoint
/// or seeded from one.
fn dag_kernel(r: &mut Round, mode: DagMode) -> Result<Arc<DataFlowKernel>, String> {
    let t0 = Instant::now();
    let mut b = DataFlowKernel::builder()
        .executor_arc(r.executor(Arc::new(ThreadPoolExecutor::new(1))))
        .memoize(true);
    b = match mode {
        DagMode::Write(p) => b.checkpoint_file(p),
        DagMode::Resume(p) => b.load_checkpoint(p),
    };
    if let Some(m) = r.monitor() {
        b = b.monitor(m);
    }
    let dfk = b.build().map_err(|e| format!("build kernel: {e}"))?;
    r.setup_s = t0.elapsed().as_secs_f64();
    if r.traced && matches!(mode, DagMode::Resume(_)) {
        r.load_s = r.setup_s;
    }
    Ok(dfk)
}

/// The layered DAG behind a gate, on a [`dag_kernel`].
fn dag_round(r: &mut Round, dag: &Dag, expected: &[Expect], mode: DagMode) -> Result<(), String> {
    let dfk = dag_kernel(r, mode)?;
    let latch = Arc::new(Latch::default());
    let gate = gate_app(&dfk, &latch);
    let node = dfk.python_app_fallible("dag_node", |id: u64, fail: bool, a: u64, b: u64| {
        if fail {
            Err(AppError::msg("poisoned node"))
        } else {
            Ok(gen::node_value(id, a, b))
        }
    });

    r.phase_start();
    let t0 = Instant::now();
    let g = r.call(|| gate.call((Dep::value(dag.gate),)));
    let mut submitted = Vec::with_capacity(dag.nodes.len());
    let mut futs: Vec<AppFuture<u64>> = Vec::with_capacity(dag.nodes.len());
    for n in &dag.nodes {
        let dep = |p: Parent| match p {
            Parent::Gate => Dep::future(g.clone()),
            Parent::Value(v) => Dep::value(v),
            Parent::Node(i) => Dep::future(futs[i].clone()),
        };
        let (a, b) = (dep(n.a), dep(n.b));
        submitted.push(Instant::now());
        let f = r.call(|| node.call((Dep::value(n.id), Dep::value(n.fail), a, b)));
        futs.push(f);
    }
    latch.release();
    let deadline = t0 + RESULT_DEADLINE;
    r.latencies_ms.reserve(futs.len());
    for ((f, exp), at) in futs.iter().zip(expected).zip(&submitted) {
        let v = r.wait(|| f.result_timeout(remaining(deadline)));
        r.latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
        let ok = match (&v, exp) {
            (Ok(v), Expect::Value(e)) => v == e,
            (Err(ParslError::Task(TaskError::App(_))), Expect::Failed) => true,
            (Err(ParslError::Task(TaskError::DependencyFailed { .. })), Expect::DepFail) => true,
            _ => false,
        };
        if !ok {
            r.failed += 1;
        }
    }
    dfk.checkpoint()
        .map_err(|e| format!("flush checkpoint: {e}"))?;
    r.phase_s = t0.elapsed().as_secs_f64();
    r.phase_end();
    r.tasks = dag.nodes.len();
    r.shutdown(&dfk);

    let (hits, misses) = dfk.memo_stats();
    r.counts.insert("core.memo.hits", hits);
    r.counts.insert("core.memo.misses", misses);
    let (DagMode::Write(ckpt) | DagMode::Resume(ckpt)) = mode;
    let bytes = std::fs::metadata(ckpt).map_or(0, |m| m.len());
    r.counts.insert("core.checkpoint.bytes", bytes);
    Ok(())
}
