#!/usr/bin/env python3
"""Station-host benchmark: build the host from source, run one workload.

Run from the repository root:

  python3 perfbench/run.py --workload live_tcp --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --self-test              # determinism self-test
  python3 perfbench/run.py --calibrate live_tcp     # offered-rate sweep

The host is built with CMake into .bench_build/perfbench (build output goes
to stderr). The last stdout line of a run is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run first repeats
the untraced run so it can report the tracing overhead. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_host"
# Everything after the build ends within this many seconds, so one
# invocation stays under three minutes.
RUN_BUDGET_S = 160
# Calibration sweep, as multiples of each workload's fixed rate, and the
# limits a swept rate must meet.
CALIBRATION_SCALES = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5)
CALIBRATION_P99_LIMIT_MS = 30.0
CALIBRATION_DRAIN_LIMIT_MS = 100.0


def build() -> None:
    # A build tree configured for another copy of the sources (a moved
    # checkout) makes CMake refuse to configure; start it afresh.
    cache = BUILD / "CMakeCache.txt"
    home = "CMAKE_HOME_DIRECTORY:INTERNAL=" + str(ROOT / "perfbench")
    if cache.exists() and home not in cache.read_text().splitlines():
        shutil.rmtree(BUILD)
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's scratch files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in (["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "--target", "perfbench_host",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_host(args: list[str], deadline: float,
             echo: bool = True) -> tuple[dict, list[str]]:
    """Runs the host; returns its JSON result and its report lines."""
    try:
        proc = subprocess.run([str(BINARY), *args], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: host did not finish in time")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: host exited with {proc.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1]), lines[:-1]


def report_value(lines: list[str], prefix: str) -> dict:
    for line in lines:
        if line.startswith(prefix + ": "):
            return json.loads(line[len(prefix) + 2:])
    sys.exit(f"perfbench: no '{prefix}' line in the host report")


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    untraced, lines = run_host(base + ["--trace", "0"], deadline)
    if not trace:
        return untraced
    latency = report_value(lines, "latency")
    traced = run_host(base + ["--trace", "1"], deadline)[0]
    plain = untraced["metrics"]["cpu_ms_per_audio_s"]["value"]
    with_spans = traced["metrics"]["proc.cpu_ms_per_audio_s"]["value"]
    overhead = 100.0 * (with_spans / plain - 1.0)
    print(f"tracing overhead: {plain:.4f} -> {with_spans:.4f} ms/audio-s "
          f"({overhead:+.2f}%)")
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_cpu_pct"] = {"value": overhead, "unit": "%"}
    # Emission latency, from the untraced run (see NOTES.md for why it is
    # reported here and not among the bounded end-to-end metrics).
    for name in ("emit_p50_ms", "emit_p90_ms"):
        metrics[name] = {"value": latency[name], "unit": "ms"}
    return {"correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "metrics": metrics}


def calibrate(workload: str, seconds: int, seed: int) -> None:
    """Sweeps the offered rate; a rate passes when emit p99 meets the limit
    and the host has no backlog: it finishes within the drain limit of the
    last due send, and the generator never fell behind its schedule."""
    print(f"{'scale':>6} {'offered':>9} {'tput':>9} {'p50_ms':>9} "
          f"{'p99_ms':>9} {'drain_ms':>10} {'late_ms':>9}  verdict")
    best = None
    for scale in CALIBRATION_SCALES:
        result, lines = run_host(
            ["--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", "0", "--rate-scale", str(scale)],
            time.monotonic() + RUN_BUDGET_S, echo=False)
        cal = report_value(lines, "calibration")
        p50 = report_value(lines, "latency")["emit_p50_ms"]
        m = result["metrics"]
        p99 = cal["emit_p99_ms"]
        ok = (result["correct"] and p99 <= CALIBRATION_P99_LIMIT_MS
              and cal["drain_ms"] <= CALIBRATION_DRAIN_LIMIT_MS
              and cal["gen_late_p99_ms"] <= CALIBRATION_P99_LIMIT_MS)
        print(f"{scale:6.2f} {cal['offered_msps']:9.2f} "
              f"{m['throughput_msps']['value']:9.2f} "
              f"{p50:9.2f} {p99:9.2f} "
              f"{cal['drain_ms']:10.2f} {cal['gen_late_p99_ms']:9.2f}  "
              f"{'ok' if ok else 'FAIL'}", flush=True)
        if ok:
            best = (scale, cal["offered_msps"])
    if best is None:
        print("no swept rate met the limits")
    else:
        print(f"highest sustainable: {best[1]:.2f} Msamples/s "
              f"(scale {best[0]:.2f} of the fixed rate)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--calibrate", metavar="WORKLOAD")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run([str(BINARY), "--self-test"], cwd=ROOT,
                                timeout=RUN_BUDGET_S).returncode)
    if args.calibrate:
        calibrate(args.calibrate, args.seconds, args.seed)
        return
    if not args.workload:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
