#!/usr/bin/env python3
"""Build tabseg from the checkout's sources and run one benchmark workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-prob, serve-warm, stream-csp (see
perfbench/README.md and BENCHMARK.json). The build output goes to standard
error; standard output carries the run's report, and its last line is the
JSON result object. The exit code is 0 only when the build succeeded and
every output check of the run passed.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("paper-prob", "serve-warm", "stream-csp")
BENCH_EXE = "perfbench/bench/perfbench.exe"
CLI_EXE = "bin/tabseg_cli.exe"
WORK_DIR = os.path.join("perfbench", "_run")
# A run must end within 180 s; the first build of a checkout is allowed
# 900 s and is not counted against this.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the library and executable sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("lib", "bin"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def benchmark_cpu():
    """The one CPU the run is confined to: the highest-numbered CPU this
    process may use (interrupts tend to land on the lowest), or None when
    the platform cannot set affinity."""
    try:
        return max(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def git_sha():
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    # The benchmark measures the program built from this checkout; without
    # its sources there is nothing to measure.
    for needed in ("dune-project", "lib", os.path.join("bin", "tabseg_cli.ml")):
        if not os.path.exists(needed):
            fail("run from the root of a tabseg checkout: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./" + BENCH_EXE, "./" + CLI_EXE],
        stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        fail("build failed")

    sha = git_sha()
    print("source {\"git_sha\": \"%s\", \"source_sha256\": \"%s\"}"
          % (sha or "unavailable", source_digest()), flush=True)

    # The run, the daemon it starts and its workers share one CPU. On a
    # few vCPUs of a shared host, processes spread over several CPUs
    # measure how fast the hypervisor wakes an idle one; on one CPU a
    # hand-off between processes is a plain context switch, and the
    # calibration kernel tracks the speed of the CPU they all run on.
    cpu = benchmark_cpu()
    try:
        host_cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        host_cpus = os.cpu_count() or 0
    print("placement {\"host_cpus\": \"%d\", \"benchmark_cpu\": \"%s\"}"
          % (host_cpus, "unpinned" if cpu is None else cpu), flush=True)

    def confine():
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})

    os.makedirs(WORK_DIR, exist_ok=True)
    command = [
        os.path.join("_build", "default", BENCH_EXE),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join("_build", "default", CLI_EXE),
        "--work-dir", WORK_DIR,
    ]
    # Its own session, so a run that overstays can be stopped together
    # with the daemon processes it started.
    bench = subprocess.Popen(command, start_new_session=True, preexec_fn=confine)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        os.killpg(bench.pid, signal.SIGTERM)
        bench.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
