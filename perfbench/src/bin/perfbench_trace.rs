//! Traced benchmark runs: the per-layer metrics, with allocations
//! counted by a global allocator this binary alone installs.

#[global_allocator]
static ALLOC: perfbench::probe::CountingAlloc = perfbench::probe::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main(true)
}
