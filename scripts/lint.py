#!/usr/bin/env python3
"""Repo-wide lint: the invariants the compilers cannot check.

Run from anywhere: `python3 scripts/lint.py [repo_root]`. Registered as the
tier-1 ctest `repo_lint`, so `ctest -L tier1` fails on a violation. Checks:

  1. cmake-strict-warnings  every add_library/add_executable target links
                            dynriver::build_flags (directly or through
                            dynriver_add_layer / dynriver_add_test), so no
                            new target silently opts out of -Wall...-Werror.
  2. seeded-rng             no rand()/srand()/std::random_device anywhere,
                            no default-constructed (unseeded) std::mt19937;
                            randomness flows through dynriver::Rng
                            (src/common/rng.hpp) or an explicit seed.
  3. checked-io             no statement-position ::fsync/::close/std::fclose
                            in src/ whose result is dropped, unless a nearby
                            comment says "best-effort" (the PR-6 durability
                            lesson: an ignored close can lose acknowledged
                            data).
  4. bench-clean-tree       committed BENCH_*.json at the repo root must be
                            stamped from a clean tree (git stamp not
                            "-dirty"): a baseline nobody can reproduce is
                            worse than none.
  5. annotated-locking      src/ uses common::Mutex/LockGuard/UniqueLock/
                            CondVar (common/thread_annotations.hpp), never
                            std::mutex & friends directly, so Clang's
                            thread-safety analysis sees every lock.
  6. tsan-supp-justified    every suppression in tsan.supp carries a comment
                            directly above it (the file is meant to stay
                            empty; see its header for the policy).
  7. fuzz-harness-registration
                            every fuzz/*_fuzz.cpp harness is listed in
                            fuzz/CMakeLists.txt (DYNRIVER_FUZZ_HARNESSES)
                            and scripts/fuzz_smoke.py (HARNESSES), and vice
                            versa — a harness nobody builds or runs is a
                            decoder nobody fuzzes.
  8. checked-size-arithmetic
                            the untrusted-byte decoder TUs do their length
                            math through common/checked.hpp: raw
                            `len * sizeof(T)` products and bare
                            `static_cast<std::size_t>` casts are banned
                            there (lines carrying `constexpr` or a
                            `checked::` call are the sanctioned spellings).
  9. one-session-loop       in src/, the cutter's bulk entry `step_run(`
                            appears only in core/stream_cutter.{hpp,cpp} and
                            core/stream_session.cpp: MultiStreamSession's
                            loop is the one scorer -> fusion -> trigger ->
                            cutter loop (StreamSession is its C = 1 case),
                            so a second copy of it fails here, not in
                            review. One smoothing loop too: `MovingAverage`
                            (now the test oracle in tests/support) may not
                            reappear in src/ — the scorer's block kernel
                            smooths — and `TriggerState` appears only in
                            core/ops_anomaly.* and core/stream_session.*.
 10. one-threading-policy   in src/, `std::thread` (and `std::jthread`,
                            `std::async`) appears only in the threads'
                            current owners: common/thread_pool.*,
                            core/session_scheduler.*, river/manager.* and
                            tools/dynriver_cli.cpp. Work runs on the shared
                            pool, a scheduler lane or reader, a deployed
                            segment's worker, or the CLI's retuner; a new
                            background thread needs a reviewed entry in
                            THREAD_OWNER_FILES.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

CXX_DIRS = ("src", "tests", "bench", "examples", "fuzz")
CXX_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}


def cxx_files(root: Path, dirs=CXX_DIRS):
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES:
                yield path


def strip_line_comment(line: str) -> str:
    """Drop // comments (good enough: no URL-bearing code lines here)."""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.errors: list[str] = []

    def fail(self, path: Path, lineno: int, check: str, msg: str) -> None:
        rel = path.relative_to(self.root)
        self.errors.append(f"{rel}:{lineno}: [{check}] {msg}")

    # -- 1. every CMake target inherits the strict warning set ---------------

    def check_cmake_targets(self) -> None:
        for path in sorted(self.root.rglob("CMakeLists.txt")):
            if "build" in path.relative_to(self.root).parts:
                continue
            text = path.read_text()
            # First argument of each target-creating call, with the line it
            # appears on. ALIAS/INTERFACE/IMPORTED libraries carry no code.
            targets = []
            for m in re.finditer(
                    r"^\s*add_(?:library|executable)\s*\(\s*([^\s)]+)([^)]*)\)",
                    text, re.MULTILINE | re.DOTALL):
                rest = m.group(2)
                if re.search(r"\b(ALIAS|INTERFACE|IMPORTED)\b", rest):
                    continue
                targets.append((m.group(1), text.count("\n", 0, m.start()) + 1))
            for name, lineno in targets:
                pattern = (r"target_link_libraries\s*\(\s*"
                           + re.escape(name) + r"[\s)]")
                linked = False
                for m in re.finditer(pattern, text):
                    close = text.find(")", m.end())
                    if "dynriver::build_flags" in text[m.start():close]:
                        linked = True
                        break
                if not linked:
                    self.fail(path, lineno, "cmake-strict-warnings",
                              f"target '{name}' does not link "
                              "dynriver::build_flags (strict warning set)")

    # -- 2. seeded, explicit randomness only ---------------------------------

    def check_rng(self) -> None:
        rng_home = self.root / "src" / "common" / "rng.hpp"
        banned = [
            (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
            (re.compile(r"std::random_device"), "std::random_device"),
            (re.compile(r"std::mt19937(?:_64)?\s+\w+\s*;"),
             "default-constructed (unseeded) std::mt19937"),
        ]
        for path in cxx_files(self.root):
            if path == rng_home:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = strip_line_comment(line)
                for pattern, what in banned:
                    if pattern.search(code):
                        self.fail(path, lineno, "seeded-rng",
                                  f"{what}: use dynriver::Rng "
                                  "(src/common/rng.hpp) or an explicit seed")

    # -- 3. fsync/close results are checked in src/ --------------------------

    def check_unchecked_io(self) -> None:
        call = re.compile(r"^\s*(?:::fsync|::close|std::fclose)\s*\(")
        for path in cxx_files(self.root, dirs=("src",)):
            lines = path.read_text().splitlines()
            for lineno, line in enumerate(lines, 1):
                if not call.match(line):
                    continue
                context = lines[max(0, lineno - 4):lineno]
                if any("best-effort" in c.lower() for c in context):
                    continue
                self.fail(path, lineno, "checked-io",
                          "result of fsync/close/fclose dropped: check it, "
                          'or mark the site with a "best-effort" comment '
                          "explaining why failure is tolerable here")

    # -- 4. committed bench baselines come from a clean tree -----------------

    def check_bench_stamps(self) -> None:
        for path in sorted(self.root.glob("BENCH_*.json")):
            try:
                stamp = json.loads(path.read_text()).get("git", "")
            except (json.JSONDecodeError, OSError) as err:
                self.fail(path, 1, "bench-clean-tree", f"unreadable: {err}")
                continue
            if stamp.endswith("-dirty"):
                self.fail(path, 1, "bench-clean-tree",
                          f"baseline stamped from a dirty tree ({stamp}); "
                          "commit first, then re-run the bench")

    # -- 5. src/ locks through the annotated primitives ----------------------

    def check_locking(self) -> None:
        home = self.root / "src" / "common" / "thread_annotations.hpp"
        banned = re.compile(
            r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex"
            r"|lock_guard|unique_lock|scoped_lock|shared_lock"
            r"|condition_variable(?:_any)?)\b"
            r"|#include\s*<(?:mutex|shared_mutex|condition_variable)>")
        for path in cxx_files(self.root, dirs=("src",)):
            if path == home:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if banned.search(strip_line_comment(line)):
                    self.fail(path, lineno, "annotated-locking",
                              "raw std locking primitive in src/: use "
                              "common::Mutex/LockGuard/UniqueLock/CondVar "
                              "(common/thread_annotations.hpp) so the "
                              "thread-safety analysis sees this lock")

    # -- 6. tsan.supp entries are justified ----------------------------------

    def check_tsan_supp(self) -> None:
        path = self.root / "tsan.supp"
        if not path.is_file():
            return
        lines = path.read_text().splitlines()
        for lineno, line in enumerate(lines, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            prev = lines[lineno - 2].strip() if lineno >= 2 else ""
            if not prev.startswith("#"):
                self.fail(path, lineno, "tsan-supp-justified",
                          "suppression without a justification comment "
                          "directly above it (see the policy header)")

    # -- 7. every fuzz harness is built and smoked ---------------------------

    def check_fuzz_registration(self) -> None:
        fuzz_dir = self.root / "fuzz"
        cmake = fuzz_dir / "CMakeLists.txt"
        smoke = self.root / "scripts" / "fuzz_smoke.py"
        if not fuzz_dir.is_dir():
            return
        harnesses = {p.name[:-len("_fuzz.cpp")]: p
                     for p in sorted(fuzz_dir.glob("*_fuzz.cpp"))}

        def registered(path: Path, list_re: str) -> set[str]:
            if not path.is_file():
                self.fail(path, 1, "fuzz-harness-registration",
                          "missing (fuzz/ harnesses have nowhere to "
                          "register)")
                return set()
            m = re.search(list_re, path.read_text(), re.DOTALL)
            if not m:
                self.fail(path, 1, "fuzz-harness-registration",
                          "harness list not found")
                return set()
            return set(re.findall(r"[\w]+", m.group(1))) - {""}

        in_cmake = registered(
            cmake, r"set\s*\(\s*DYNRIVER_FUZZ_HARNESSES\s*([^)]*)\)")
        in_smoke = registered(smoke, r"HARNESSES\s*=\s*\[([^\]]*)\]")
        for name, path in harnesses.items():
            if in_cmake and name not in in_cmake:
                self.fail(path, 1, "fuzz-harness-registration",
                          f"harness '{name}' not in fuzz/CMakeLists.txt "
                          "DYNRIVER_FUZZ_HARNESSES (it will never build)")
            if in_smoke and name not in in_smoke:
                self.fail(path, 1, "fuzz-harness-registration",
                          f"harness '{name}' not in scripts/fuzz_smoke.py "
                          "HARNESSES (CI will never fuzz it)")
        for name in sorted((in_cmake | in_smoke) - set(harnesses)):
            where = cmake if name in in_cmake else smoke
            self.fail(where, 1, "fuzz-harness-registration",
                      f"registered harness '{name}' has no "
                      f"fuzz/{name}_fuzz.cpp")

    # -- 8. decoder TUs use overflow-checked size arithmetic ------------------

    # The parsers that turn attacker-controlled length fields into sizes.
    DECODER_FILES = (
        "src/river/wire.cpp",
        "src/river/bitpack.hpp",
        "src/river/segment_format.hpp",
        "src/river/segment_format.cpp",
        "src/river/segment_reader.cpp",
        "src/river/segment_store.cpp",
        "src/dsp/wav.cpp",
    )

    def check_size_arithmetic(self) -> None:
        banned = [
            (re.compile(r"\*\s*sizeof\s*\("), "raw `x * sizeof(T)` product"),
            (re.compile(r"sizeof\s*\([^)]*\)\s*\*", ),
             "raw `sizeof(T) * x` product"),
            (re.compile(r"static_cast<\s*std::size_t\s*>\s*\("),
             "bare static_cast<std::size_t> of a length"),
        ]
        for rel in self.DECODER_FILES:
            path = self.root / rel
            if not path.is_file():
                self.fail(path, 1, "checked-size-arithmetic",
                          "decoder file listed in lint.py no longer exists; "
                          "update DECODER_FILES")
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = strip_line_comment(line)
                # Sanctioned spellings: compile-time tables, and sizes that
                # already flow through a checked:: helper on this line.
                if "constexpr" in code or "checked::" in code:
                    continue
                for pattern, what in banned:
                    if pattern.search(code):
                        self.fail(path, lineno, "checked-size-arithmetic",
                                  f"{what} in an untrusted-byte decoder: "
                                  "route it through common/checked.hpp "
                                  "(checked::add/mul/narrow)")

    # -- 9. one streaming extraction loop ------------------------------------

    SESSION_LOOP_FILES = (
        "src/core/stream_cutter.hpp",
        "src/core/stream_cutter.cpp",
        "src/core/stream_session.cpp",
    )

    TRIGGER_FILES = (
        "src/core/ops_anomaly.hpp",
        "src/core/ops_anomaly.cpp",
        "src/core/stream_session.hpp",
        "src/core/stream_session.cpp",
    )

    def check_session_loop(self) -> None:
        allowed = {self.root / rel for rel in self.SESSION_LOOP_FILES}
        trigger_allowed = {self.root / rel for rel in self.TRIGGER_FILES}
        call = re.compile(r"\bstep_run\s*\(")
        smoother = re.compile(r"\bMovingAverage\b")
        trigger = re.compile(r"\bTriggerState\b")
        for path in cxx_files(self.root, dirs=("src",)):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = strip_line_comment(line)
                if path not in allowed and call.search(code):
                    self.fail(path, lineno, "one-session-loop",
                              "StreamCutter::step_run outside the session "
                              "loop: extend MultiStreamSession "
                              "(core/stream_session.cpp) instead of adding "
                              "a second scorer -> trigger -> cutter loop")
                if smoother.search(code):
                    self.fail(path, lineno, "one-session-loop",
                              "MovingAverage in src/: smoothing runs in "
                              "ts::StreamingAnomalyScorer's block kernel; "
                              "the class is the test oracle in "
                              "tests/support")
                if path not in trigger_allowed and trigger.search(code):
                    self.fail(path, lineno, "one-session-loop",
                              "TriggerState outside core/ops_anomaly.* and "
                              "core/stream_session.*: feed the session's "
                              "fused loop instead of adding a second "
                              "smoothing -> trigger loop")

    # -- 10. one threading policy --------------------------------------------

    THREAD_OWNER_FILES = (
        "src/common/thread_pool.hpp",
        "src/common/thread_pool.cpp",
        "src/core/session_scheduler.hpp",
        "src/core/session_scheduler.cpp",
        "src/river/manager.hpp",
        "src/river/manager.cpp",
        "src/tools/dynriver_cli.cpp",
    )

    def check_threading(self) -> None:
        allowed = {self.root / rel for rel in self.THREAD_OWNER_FILES}
        spawn = re.compile(r"\bstd::(?:j?thread|async)\b")
        for path in cxx_files(self.root, dirs=("src",)):
            if path in allowed:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if spawn.search(strip_line_comment(line)):
                    self.fail(path, lineno, "one-threading-policy",
                              "a thread outside the reviewed owners: run the "
                              "work on common::ThreadPool or a scheduler "
                              "lane, or add the file to THREAD_OWNER_FILES "
                              "with a reason")

    def run(self) -> int:
        self.check_cmake_targets()
        self.check_rng()
        self.check_unchecked_io()
        self.check_bench_stamps()
        self.check_locking()
        self.check_tsan_supp()
        self.check_fuzz_registration()
        self.check_size_arithmetic()
        self.check_session_loop()
        self.check_threading()
        for err in self.errors:
            print(err, file=sys.stderr)
        if self.errors:
            print(f"lint: {len(self.errors)} violation(s)", file=sys.stderr)
            return 1
        print("lint: clean")
        return 0


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        __file__).resolve().parent.parent
    return Linter(root.resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
