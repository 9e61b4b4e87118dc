#!/usr/bin/env python3
"""Gate line coverage of the untrusted-byte decoder TUs with llvm-cov.

Drives the `coverage` CMake preset's tree (Clang,
-fprofile-instr-generate -fcoverage-mapping):

  1. runs the tier-1 ctest suites with LLVM_PROFILE_FILE pointed at a
     scratch directory (this includes the fuzz_regression_* corpus replays,
     so committed findings count toward decoder coverage),
  2. merges the .profraw files with llvm-profdata,
  3. exports per-file line summaries with llvm-cov over every test and fuzz
     binary in the tree,
  4. fails if any decoder file is below --threshold percent line coverage.

The gated files are exactly the ones scripts/lint.py holds to the
checked-size-arithmetic rule: the parsers where a missed branch is a missed
hostile-input case, not a style gap.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

DECODER_FILES = [
    "src/river/wire.cpp",
    "src/river/bitpack.hpp",
    "src/river/segment_format.hpp",
    "src/river/segment_format.cpp",
    "src/river/segment_reader.cpp",
    "src/river/segment_store.cpp",
    "src/dsp/wav.cpp",
]


def tool(name: str) -> str:
    for candidate in (name, f"{name}-19", f"{name}-18", f"{name}-17",
                      f"{name}-16", f"{name}-15", f"{name}-14"):
        if shutil.which(candidate):
            return candidate
    print(f"error: {name} not found on PATH", file=sys.stderr)
    raise SystemExit(2)


def binaries(build_dir: Path) -> list[Path]:
    out = []
    for sub in ("tests", "fuzz"):
        base = build_dir / sub
        if not base.is_dir():
            continue
        for path in sorted(base.iterdir()):
            if path.is_file() and path.stat().st_mode & 0o111:
                out.append(path)
    return out


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path,
                        default=repo / "build" / "coverage")
    parser.add_argument("--threshold", type=float, default=80.0,
                        help="minimum line coverage percent per decoder file")
    parser.add_argument("--skip-tests", action="store_true",
                        help="reuse existing .profraw files instead of "
                             "re-running ctest")
    args = parser.parse_args()

    profile_dir = args.build_dir / "profiles"
    if not args.skip_tests:
        shutil.rmtree(profile_dir, ignore_errors=True)
        profile_dir.mkdir(parents=True)
        env = dict(os.environ)
        env["LLVM_PROFILE_FILE"] = f"{profile_dir}/%p-%m.profraw"
        ctest = subprocess.run(
            ["ctest", "--test-dir", str(args.build_dir), "-L", "tier1",
             "--output-on-failure"], env=env)
        if ctest.returncode != 0:
            print("error: tier-1 tests failed; coverage not evaluated",
                  file=sys.stderr)
            return 1

    profraws = sorted(profile_dir.glob("*.profraw"))
    if not profraws:
        print(f"error: no .profraw files under {profile_dir}", file=sys.stderr)
        return 1

    merged = args.build_dir / "decoders.profdata"
    subprocess.run([tool("llvm-profdata"), "merge", "-sparse",
                    *map(str, profraws), "-o", str(merged)], check=True)

    objects: list[str] = []
    for path in binaries(args.build_dir):
        objects += ["-object", str(path)]
    export = subprocess.run(
        [tool("llvm-cov"), "export", "-summary-only",
         f"-instr-profile={merged}", *objects,
         *(str(repo / f) for f in DECODER_FILES)],
        stdout=subprocess.PIPE, check=True, text=True)
    summary = json.loads(export.stdout)

    by_file = {}
    for entry in summary["data"][0]["files"]:
        lines = entry["summary"]["lines"]
        by_file[entry["filename"]] = (lines["covered"], lines["count"])

    failures = 0
    print(f"{'decoder file':<34} {'lines':>11} {'coverage':>9}")
    for rel in DECODER_FILES:
        hit = next((v for k, v in by_file.items() if k.endswith(rel)), None)
        if hit is None or hit[1] == 0:
            print(f"{rel:<34} {'—':>11} {'none':>9}")
            failures += 1
            continue
        covered, count = hit
        pct = 100.0 * covered / count
        flag = "" if pct >= args.threshold else "  << below threshold"
        if pct < args.threshold:
            failures += 1
        print(f"{rel:<34} {covered:>5}/{count:<5} {pct:>8.1f}%{flag}")

    if failures:
        print(f"decode coverage: {failures} file(s) below "
              f"{args.threshold:g}% line coverage", file=sys.stderr)
        return 1
    print(f"decode coverage: all decoder files at or above "
          f"{args.threshold:g}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
