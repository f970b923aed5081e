#!/usr/bin/env python3
"""Build parsl-rs from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. Builds the
`parsl-worker` binary (root package) and the benchmark (`perfbench/`,
a package of its own) into $CARGO_TARGET_DIR (default `.bench_build`),
then runs `perfbench` (--trace 0: end-to-end metrics) or
`perfbench-trace` (--trace 1: per-layer metrics). Prints a provenance
line, then as the last line the JSON result object. Exits non-zero,
without a result, if the sources are missing or anything fails.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fanout_tcp", "chain_tcp", "dag_checkpoint", "dag_resume", "map_tcp"]
# Beyond --seconds a run spends time on set-up samples, preparation and
# its last round, which may wait up to its 30 s result deadline.
RUN_MARGIN_S = 150


# The child process running now. Each child leads its own process group,
# so everything it starts (rustc, worker processes) can be reaped with it.
CHILD = None


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spawn(cmd, env, **kw):
    global CHILD
    CHILD = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True, **kw)
    return CHILD


def stop(signum, _frame):
    """On SIGTERM/SIGINT, take the running child's process group down too."""
    if CHILD is not None:
        reap_group(CHILD.pid)
    sys.exit(128 + signum)


def cargo(args, env):
    # Build output goes to stderr so stdout carries only the result.
    proc = spawn(["cargo", *args], env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.wait() != 0:
        fail(f"cargo {' '.join(args)} failed with exit code {proc.returncode}")


def git(*args):
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_jiffies():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return (0, 0)
    return (fields[7], sum(fields))


def provenance(args, steal_frac):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    # Only report git state if the checkout itself is a repository, not
    # some enclosing one.
    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    status = git("status", "--porcelain") if in_repo else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "git_commit": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        # Share of CPU time the hypervisor took from this machine during
        # the run: a noisy neighbour shows here, not in the metrics' names.
        "host_steal_frac": steal_frac,
    }


def reap_group(pgid):
    """Kill whatever is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    # The group leader is our own child: reap it, or its zombie would look
    # alive below. (Popen may have reaped it already.)
    try:
        os.waitpid(pgid, 0)
    except ChildProcessError:
        pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    for needed in ("Cargo.toml", "src", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"parsl-rs sources not found: {needed} is missing next to perfbench/")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cargo(["build", "--release", "--offline", "-q", "--bin", "parsl-worker"], env)
    cargo(
        ["build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
        env,
    )

    release = os.path.join(target, "release")
    worker = os.path.join(release, "parsl-worker")
    if not os.path.isfile(worker):
        fail(f"build produced no parsl-worker at {worker}")
    env["PARSL_WORKER_BIN"] = worker
    binary = os.path.join(release, "perfbench-trace" if args.trace else "perfbench")
    work_dir = os.path.join(target, "perfbench-work")

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--work-dir", work_dir,
    ]
    steal0, total0 = cpu_jiffies()
    timeout = args.seconds + RUN_MARGIN_S
    proc = spawn(cmd, env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        fail(f"run exceeded {timeout}s")
    steal1, total1 = cpu_jiffies()
    steal_frac = round((steal1 - steal0) / max(total1 - total0, 1), 4)
    # Worker processes a crashed run left behind go with its group.
    reap_group(proc.pid)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(provenance(args, steal_frac), sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
