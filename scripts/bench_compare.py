#!/usr/bin/env python3
"""Diff two BENCH_micro.json files and flag per-op regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json [--threshold 0.10]
                             [--warn-only]
    scripts/bench_compare.py --baseline {1core,PATH} CURRENT.json

The committed baseline lives at the repository root: BENCH_micro.json,
measured on one core. `--baseline 1core` selects it by name relative to this
script's repository; any other value is taken as a path.

Benchmarks are keyed by (op, size). Every unit the schema carries is
lower-is-better; records without a unit field (older baselines) default to
"ns/op". A unit mismatch between baseline and current for the same
(op, size) is an error. Two kinds of row diff differently:

  - Timing rows (unit "ns/op") regress when the current value exceeds
    baseline * (1 + threshold) and improve symmetrically.
  - Exact rows (any other unit, e.g. archive_bytes_per_sample in "bytes")
    measure an output, not a duration, so they carry no noise: one fails
    as soon as the current value, rounded to the precision the baseline
    stores, is larger than the baseline.

Ops present in only one file are reported but never fail the run, so a
baseline taken before an op was added or retired still compares. Exit status
is 1 when any op regressed. --warn-only turns timing regressions into
warnings (for noisy shared-runner environments, where hard-failing on a 10%
swing would be flaky); an exact row that grew still fails the run.
"""

import argparse
import decimal
import json
import os
import sys

NAMED_BASELINES = {
    "1core": "BENCH_micro.json",
}


def resolve_baseline(name):
    if name not in NAMED_BASELINES:
        return name  # a literal path
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(repo_root, NAMED_BASELINES[name])


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "dynriver-bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    git = doc.get("git", "unknown")
    if git.endswith("-dirty"):
        print(f"warning: {path} was measured on a dirty tree (git {git}); "
              f"its numbers are not reproducible from any commit",
              file=sys.stderr)
    table = {}
    for rec in doc.get("benchmarks", []):
        table[(rec["op"], rec["size"])] = (
            float(rec["ns_per_op"]),
            rec.get("unit", "ns/op"),
        )
    return git, table


TIMING_UNITS = {"ns/op"}


def stored_decimals(value):
    """Digits after the point in the shortest repr of `value`: the precision
    the JSON stored it with (1.316 -> 3)."""
    exponent = decimal.Decimal(repr(value)).as_tuple().exponent
    return max(0, -exponent)


def fmt_value(value, unit):
    if unit != "ns/op":
        short = {"bytes": "B"}.get(unit, unit)
        return f"{value:10.3f} {short:>2}"
    if value >= 1e6:
        return f"{value / 1e6:10.2f} ms"
    if value >= 1e3:
        return f"{value / 1e3:10.2f} us"
    return f"{value:10.1f} ns"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", metavar="JSON",
                        help="BASELINE.json CURRENT.json, or just "
                             "CURRENT.json with --baseline")
    parser.add_argument(
        "--baseline",
        metavar="NAME",
        help="named committed baseline ('1core') or a path; "
             "replaces the positional BASELINE.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        metavar="FRAC",
        help="relative slowdown that counts as a regression (default 0.10)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0",
    )
    args = parser.parse_args()

    if args.baseline is not None:
        if len(args.files) != 1:
            parser.error("with --baseline, pass exactly one CURRENT.json")
        baseline_path = resolve_baseline(args.baseline)
        current_path = args.files[0]
    else:
        if len(args.files) != 2:
            parser.error("pass BASELINE.json CURRENT.json "
                         "(or CURRENT.json with --baseline)")
        baseline_path, current_path = args.files

    base_git, base = load(baseline_path)
    cur_git, cur = load(current_path)

    print(f"baseline: {baseline_path} (git {base_git})")
    print(f"current:  {current_path} (git {cur_git})")
    print(f"{'op':<28} {'size':>8} {'baseline':>13} {'current':>13} "
          f"{'ratio':>7}  verdict")
    print("-" * 86)

    regressions = []
    exact_failures = []
    for key in sorted(base.keys() | cur.keys()):
        op, size = key
        b = base.get(key)
        c = cur.get(key)
        if b is None or c is None:
            status = "only in current" if b is None else "only in baseline"
            missing = "--"
            print(f"{op:<28} {size:>8} "
                  f"{fmt_value(*b) if b is not None else missing:>13} "
                  f"{fmt_value(*c) if c is not None else missing:>13} "
                  f"{'':>7}  {status}")
            continue
        (b_value, b_unit), (c_value, c_unit) = b, c
        if b_unit != c_unit:
            sys.exit(f"{op}@{size}: unit mismatch "
                     f"({b_unit!r} in baseline, {c_unit!r} in current)")
        ratio = c_value / b_value if b_value > 0 else float("inf")
        if b_unit not in TIMING_UNITS:
            if round(c_value, stored_decimals(b_value)) > b_value:
                verdict = "EXACT REGRESSION (fails even with --warn-only)"
                exact_failures.append((op, size, b_value, c_value, b_unit))
            elif c_value < b_value:
                verdict = f"improved ({(1 - ratio) * 100:.1f}%)"
            else:
                verdict = "ok"
        elif ratio > 1.0 + args.threshold:
            verdict = f"REGRESSION (+{(ratio - 1) * 100:.1f}%)"
            regressions.append((op, size, ratio))
        elif ratio < 1.0 - args.threshold:
            verdict = f"improved ({(1 - ratio) * 100:.1f}%)"
        else:
            verdict = "ok"
        print(f"{op:<28} {size:>8} {fmt_value(b_value, b_unit):>13} "
              f"{fmt_value(c_value, c_unit):>13} "
              f"{ratio:>6.2f}x  {verdict}")

    print("-" * 86)
    if exact_failures:
        print(f"{len(exact_failures)} exact row(s) grew:")
        for op, size, b_value, c_value, unit in exact_failures:
            print(f"  {op}@{size}: {b_value} -> {c_value} {unit}")
    if regressions:
        print(f"{len(regressions)} timing op(s) regressed beyond "
              f"{args.threshold * 100:.0f}%:")
        for op, size, ratio in regressions:
            print(f"  {op}@{size}: {ratio:.2f}x slower")
    if exact_failures:
        return 1
    if regressions:
        return 0 if args.warn_only else 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
