//! Measurement from outside the program: procfs readers, a counting
//! allocator, a monitor sink and an executor tap. Only the traced binary
//! installs the allocator, and only traced rounds attach the sink and the
//! tap or read per-thread stats, so untraced runs carry none of this.

use parsl::core::{
    BlockScaling, Executor, ExecutorContext, ExecutorError, MonitorEvent, MonitorSink, TaskId,
    TaskSpec, TaskState,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Linux reports CPU times in `/proc/*/stat` in ticks of 1/100 s.
const TICK_US: f64 = 10_000.0;

fn stat_fields(text: &str) -> Vec<&str> {
    // The command name sits in parentheses and may contain spaces; the
    // fields after it start at field 3 (state).
    text.rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default()
}

fn field(fields: &[&str], n: usize) -> u64 {
    // `n` is the 1-based field number from proc(5).
    fields.get(n - 3).and_then(|f| f.parse().ok()).unwrap_or(0)
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the memory the allocator holds free back to the system
/// (glibc `malloc_trim`), so that each round starts from a heap that the
/// rounds before it did not leave fragmented.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes a plain size and only touches the
    // allocator's own state, under its own locks.
    unsafe {
        malloc_trim(0);
    }
}

fn rusage_cpu_us(who: i32) -> f64 {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` for the duration
    // of the call, and `who` is RUSAGE_SELF or RUSAGE_CHILDREN.
    if unsafe { getrusage(who, &mut ru) } != 0 {
        return 0.0;
    }
    let us = |tv: [i64; 2]| tv[0] as f64 * 1e6 + tv[1] as f64;
    us(ru.utime) + us(ru.stime)
}

/// Process CPU in microseconds: (this process, reaped children). The
/// same totals as `/proc/self/stat`'s utime+stime and cutime+cstime, at
/// microsecond rather than tick resolution.
pub fn process_cpu_us() -> (f64, f64) {
    (rusage_cpu_us(0), rusage_cpu_us(-1))
}

/// Reset this process's peak resident set size to its current size
/// (`/proc/self/clear_refs`, Linux 4.0+), so that a later
/// [`vm_hwm_kib`] reads the peak since now.
pub fn reset_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, in KiB.
pub fn vm_hwm_kib() -> u64 {
    status_value(
        &std::fs::read_to_string("/proc/self/status").unwrap_or_default(),
        "VmHWM:",
    )
}

fn status_value(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One thread of this process.
#[derive(Debug, Clone)]
pub struct ThreadStat {
    pub name: String,
    pub main: bool,
    pub cpu_us: f64,
    pub ctx_switches: u64,
}

/// Every live thread of this process, keyed by thread id.
pub fn threads() -> HashMap<u32, ThreadStat> {
    let pid = std::process::id();
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let path = entry.path();
        let status = std::fs::read_to_string(path.join("status")).unwrap_or_default();
        let name = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        out.insert(
            tid,
            ThreadStat {
                name: name.trim_end().to_string(),
                main: tid == pid,
                cpu_us: thread_cpu_us(&path),
                ctx_switches: status_value(&status, "voluntary_ctxt_switches:")
                    + status_value(&status, "nonvoluntary_ctxt_switches:"),
            },
        );
    }
    out
}

/// A thread's CPU time: nanosecond `schedstat` where the kernel offers
/// it, else utime+stime ticks from `stat`.
fn thread_cpu_us(task: &std::path::Path) -> f64 {
    let schedstat = std::fs::read_to_string(task.join("schedstat")).unwrap_or_default();
    if let Some(ns) = schedstat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse::<u64>().ok())
    {
        return ns as f64 / 1e3;
    }
    let stat = std::fs::read_to_string(task.join("stat")).unwrap_or_default();
    let f = stat_fields(&stat);
    (field(&f, 14) + field(&f, 15)) as f64 * TICK_US
}

/// The layer a thread belongs to, by the name the program gives it.
pub fn thread_layer(t: &ThreadStat) -> Option<&'static str> {
    let n = t.name.as_str();
    Some(if t.main {
        "core.submit.cpu_us"
    } else if n == "parsl-collector" {
        "core.collector.cpu_us"
    } else if n == "htex-ix" {
        "executors.htex.ix.cpu_us"
    } else if n == "htex-client" {
        "executors.htex.client.cpu_us"
    } else if n.starts_with("nexus-tcp") {
        "nexus.tcp.cpu_us"
    } else if n.starts_with("threads-w") {
        "executors.threadpool.cpu_us"
    } else {
        return None;
    })
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts allocations while counting is on.
/// Installed only by the traced binary.
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Turn allocation counting on or off; returns (count, bytes) so far.
pub fn alloc_counting(on: bool) -> (u64, u64) {
    COUNTING.store(on, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// An executor that forwards everything to the one it wraps, adding up
/// the wire-encoded argument bytes of every task the kernel hands it.
/// Traced rounds put one around each executor.
pub struct Tap {
    inner: Arc<dyn Executor>,
    args_bytes: Arc<AtomicU64>,
}

impl Tap {
    /// Wrap `inner`; `args_bytes` is the counter it adds to.
    pub fn new(inner: Arc<dyn Executor>, args_bytes: Arc<AtomicU64>) -> Tap {
        Tap { inner, args_bytes }
    }
}

impl Executor for Tap {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn start(&self, ctx: ExecutorContext) -> Result<(), ExecutorError> {
        self.inner.start(ctx)
    }

    fn submit(&self, task: TaskSpec) -> Result<(), ExecutorError> {
        self.args_bytes
            .fetch_add(task.args.len() as u64, Ordering::Relaxed);
        self.inner.submit(task)
    }

    fn submit_batch(&self, tasks: Vec<TaskSpec>) -> Result<(), ExecutorError> {
        let bytes: usize = tasks.iter().map(|t| t.args.len()).sum();
        self.args_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.inner.submit_batch(tasks)
    }

    fn cancel(&self, id: TaskId, attempt: u32) {
        self.inner.cancel(id, attempt)
    }

    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn connected_workers(&self) -> usize {
        self.inner.connected_workers()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }

    fn scaling(&self) -> Option<&dyn BlockScaling> {
        self.inner.scaling()
    }
}

#[derive(Default)]
struct SinkState {
    pending_at: HashMap<TaskId, Duration>,
    launched_at: HashMap<TaskId, Duration>,
    pending_to_launched_us: Vec<f64>,
    launched_to_done_us: Vec<f64>,
    events: u64,
    batches: u64,
    batch_events: u64,
    retries: u64,
}

/// Monitor sink recording per-task intervals from the event stream.
#[derive(Default)]
pub struct Sink(Mutex<SinkState>);

/// What one traced round's event stream showed.
#[derive(Debug, Clone, Default)]
pub struct SinkSummary {
    pub pending_to_launched_us: Vec<f64>,
    pub launched_to_done_us: Vec<f64>,
    pub events: u64,
    pub batches: u64,
    pub batch_events: u64,
    pub retries: u64,
}

impl Sink {
    fn record(s: &mut SinkState, e: &MonitorEvent) {
        s.events += 1;
        match e {
            MonitorEvent::Task {
                task, state, at, ..
            } => match state {
                TaskState::Pending => {
                    s.pending_at.insert(*task, *at);
                }
                TaskState::Launched => {
                    if let Some(p) = s.pending_at.remove(task) {
                        s.pending_to_launched_us
                            .push((at.saturating_sub(p)).as_secs_f64() * 1e6);
                    }
                    s.launched_at.insert(*task, *at);
                }
                TaskState::Done | TaskState::Failed => {
                    if let Some(l) = s.launched_at.remove(task) {
                        s.launched_to_done_us
                            .push((at.saturating_sub(l)).as_secs_f64() * 1e6);
                    }
                }
                _ => {}
            },
            MonitorEvent::Retry { .. } => s.retries += 1,
            _ => {}
        }
    }

    pub fn summary(&self) -> SinkSummary {
        let s = self.0.lock().expect("sink lock poisoned");
        SinkSummary {
            pending_to_launched_us: s.pending_to_launched_us.clone(),
            launched_to_done_us: s.launched_to_done_us.clone(),
            events: s.events,
            batches: s.batches,
            batch_events: s.batch_events,
            retries: s.retries,
        }
    }
}

impl MonitorSink for Sink {
    fn on_event(&self, event: &MonitorEvent) {
        Self::record(&mut self.0.lock().expect("sink lock poisoned"), event);
    }

    fn on_batch(&self, events: &[MonitorEvent]) {
        let mut s = self.0.lock().expect("sink lock poisoned");
        s.batches += 1;
        s.batch_events += events.len() as u64;
        for e in events {
            Self::record(&mut s, e);
        }
    }
}
