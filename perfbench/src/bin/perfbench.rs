//! Untraced benchmark runs: the end-to-end metrics. See the crate docs.

fn main() -> std::process::ExitCode {
    perfbench::main(false)
}
