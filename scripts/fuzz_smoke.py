#!/usr/bin/env python3
"""CI fuzz smoke: run every harness for a bounded budget, fail on findings.

Two phases per harness, against the committed corpus in fuzz/corpus/<name>:

  1. replay   — `fuzz_<name> -runs=0 <corpus>`: every committed regression
                input (golden seeds plus past findings) must run clean.
  2. fuzz     — `fuzz_<name> <scratch> <corpus> -max_total_time=<budget>`:
                a short coverage-guided session under ASan+UBSan (the
                `fuzzer` CMake preset). Any crash/leak/UB aborts the run and
                the triggering input lands in --artifacts for triage; commit
                it to fuzz/corpus/<name> once the bug is fixed.

The replay phase also works against the standalone-driver binaries every
other preset builds (the driver ignores libFuzzer flags), so
`fuzz_smoke.py --replay-only` is usable on GCC/Release trees; pass
--driver-mutate N there to add the driver's deterministic mutation sweep.

Every harness below must exist as fuzz/<name>_fuzz.cpp and vice versa — the
repo lint (fuzz-harness-registration) cross-checks this list against the
fuzz/ directory and fuzz/CMakeLists.txt.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HARNESSES = [
    "wire_decode",
    "bitpack",
    "segment_open",
    "wav",
    "attrs",
]

# Make every sanitizer finding fatal and symbolized. -fno-sanitize-recover
# in the build already halts on UB; these cover the runtime-configurable
# side (leaks are findings too: a decoder that leaks on hostile input is a
# remote memory exhaustion primitive).
SAN_ENV = {
    "ASAN_OPTIONS": "abort_on_error=1:detect_leaks=1:allocator_may_return_null=0",
    "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1",
}


def run(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.update(SAN_ENV)
    return subprocess.run(
        cmd, env=env, timeout=timeout,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path,
                        default=repo / "build" / "fuzzer",
                        help="tree holding the fuzz_* binaries")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="seconds of coverage-guided fuzzing per harness")
    parser.add_argument("--replay-only", action="store_true",
                        help="corpus replay only (works without libFuzzer)")
    parser.add_argument("--driver-mutate", type=int, default=0, metavar="N",
                        help="with standalone-driver binaries: N deterministic"
                             " mutation rounds per seed after the replay")
    parser.add_argument("--artifacts", type=Path,
                        default=repo / "build" / "fuzz-artifacts",
                        help="where crashing inputs are saved")
    args = parser.parse_args()

    args.artifacts.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []

    for harness in HARNESSES:
        binary = args.build_dir / "fuzz" / f"fuzz_{harness}"
        corpus = repo / "fuzz" / "corpus" / harness
        if not binary.is_file():
            failures.append(f"{harness}: missing binary {binary}")
            continue
        if not corpus.is_dir():
            failures.append(f"{harness}: missing committed corpus {corpus}")
            continue

        replay = [str(binary), "-runs=0", str(corpus)]
        if args.driver_mutate > 0:
            replay.insert(1, f"--mutate={args.driver_mutate}")
        # Generous wall clamp: replay is I/O bound, not budget bound.
        proc = run(replay, timeout=max(120.0, 10.0 * args.budget))
        if proc.returncode != 0:
            failures.append(f"{harness}: corpus replay failed "
                            f"(exit {proc.returncode})\n{proc.stdout[-2000:]}")
            continue
        print(f"{harness}: replay clean")

        if args.replay_only:
            continue

        scratch = Path(tempfile.mkdtemp(prefix=f"fuzz_{harness}_"))
        try:
            proc = run([
                str(binary), str(scratch), str(corpus),
                f"-max_total_time={args.budget:g}",
                f"-artifact_prefix={args.artifacts}/{harness}-",
                "-print_final_stats=1",
            ], timeout=10.0 * args.budget + 120.0)
            if proc.returncode != 0:
                failures.append(
                    f"{harness}: fuzzing found a bug (exit "
                    f"{proc.returncode}); triggering input saved under "
                    f"{args.artifacts}\n{proc.stdout[-4000:]}")
            else:
                stats = [l for l in proc.stdout.splitlines()
                         if "stat::" in l or "cov:" in l]
                print(f"{harness}: {args.budget:g}s fuzz clean "
                      f"({stats[-1].strip() if stats else 'no stats'})")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        print(f"fuzz smoke: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("fuzz smoke: all harnesses clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
