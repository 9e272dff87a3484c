#!/usr/bin/env bash
# Tier-1 test gate: configure, build, and run the full ctest suite, first
# plain, then under AddressSanitizer + UBSan, then under ThreadSanitizer
# (SPP_SANITIZE, see the top-level CMakeLists.txt), and finally as a
# -Werror strict-warnings build (SPP_WERROR).  Any leg failing fails the
# gate.  Every leg's ctest includes explore_survive (sppsim-explore
# survive, docs/RECOVERY.md): all six apps must survive a mid-run CPU
# fail-stop by migration alone, with no checkpoint, the spp::check oracles
# clean and the fault-free answer.  The sanitized leg's ctest is therefore
# its survivable-run smoke; it adds the lossy-fabric chaos smoke under asan.
# --survive-only runs no ctest, so it runs survive itself.
#
# The sanitized ctest and its smokes run with UBSAN_OPTIONS=halt_on_error=1,
# so any UBSan report fails the leg (UBSan recovers and carries on by
# default, which let reports pass unnoticed).
#
# The ThreadSanitizer leg runs every simulated thread on a fiber, as every
# other build does: fiber switches carry tsan annotations (spp/rt/fiber.h).
#
# Every leg's ctest checks 18 of sppsim-bench's 19 entries against the
# committed bench/baselines: the seven paper_* tests and bench_baselines
# run with --check, so a moved simulated time or counter digest fails
# tier-1.  Only fig8_nbody (over a minute) is left to bench-smoke.
#
# A gating bench-smoke leg (--bench-smoke) builds Release and runs
# sppsim-bench once over its whole table: every paper figure and ablation
# at the reduced size and every acceptance workload at the smoke size,
# about 90 s.  It fails on a paper-gate FAIL or a simulated-time or
# counter-digest divergence from the committed bench/baselines
# (docs/PERFORMANCE.md), never on wall-clock numbers.  It then runs
# perfbench's --self-check: smoke workloads untraced and traced, whose
# digests must agree, plus the replay-exactness check of the MemObserver
# stream (perfbench/README.md).
#
# The sanitized leg also runs a kill-resume smoke (docs/RECOVERY.md):
# nbody runs with durable on-disk checkpoints (--ckpt-dir), is SIGKILLed
# mid-run, and a --resume run must reproduce the digest of an
# uninterrupted run bit-for-bit.  Its default run is on two hypernodes, so
# this also covers a multi-node crash/resume.
#
# The sanitized leg also runs the disk-chaos smoke (sppsim-explore
# chaos-disk, docs/RECOVERY.md "Host I/O faults & the degradation
# ladder"): durable nbody runs under every injected host-I/O fault class
# -- EIO, short write, fsync failure, ENOSPC, torn rename, read-side bit
# rot -- and each must resume to the fault-free digest without ever
# loading a corrupt epoch.
#
# A gating --lint-only leg builds and runs spp-lint (tools/spp_lint,
# docs/STATIC_ANALYSIS.md): the fixture self-test must flag every seeded
# violation, the tree must lint clean, and the arch-mutation inventory is
# refreshed at build/lint/arch_mutations.json.
#
# A non-gating --analyze-only leg runs the clang static analyzer
# (scan-build or clang --analyze) and clang-tidy's concurrency checks when
# an LLVM toolchain is on PATH, and skips gracefully when it is not (the
# reference CI image is gcc-only).
#
# Usage: ci/run_tests.sh [--plain-only|--sanitize-only|--tsan-only|--werror-only|--survive-only|--bench-smoke|--lint-only|--analyze-only]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-all}"
UBSAN_HALT="halt_on_error=1:print_stacktrace=1"

run_suite() {
  local builddir="$1"; shift
  cmake -B "$builddir" -S . "$@"
  cmake --build "$builddir" -j "$JOBS"
  ctest --test-dir "$builddir" --output-on-failure -j "$JOBS"
}

if [[ "$MODE" == "all" || "$MODE" == "--plain-only" ]]; then
  echo "=== tier-1: plain build ==="
  run_suite build
fi

survive_smoke() {
  local builddir="$1"
  echo "=== tier-1: survivable-run smoke ($builddir) ==="
  "$builddir/tools/sppsim-explore" survive --nodes 2 --threads 8
}

chaos_smoke() {
  local builddir="$1"
  echo "=== tier-1: lossy-fabric chaos smoke ($builddir) ==="
  "$builddir/tools/sppsim-explore" chaos --nodes 2 --rounds 64
}

# Kill-resume smoke: a durable nbody run is SIGKILLed after two epoch
# writes; restarting with --resume must reach the digest of the same run
# left uninterrupted.  Exercises the on-disk checkpoint format end to end
# (write, crash, validate, reload) under asan.
kill_resume_smoke() {
  local builddir="$1"
  echo "=== tier-1: kill-resume smoke ($builddir) ==="
  local explore="$builddir/tools/sppsim-explore"
  local d
  d="$(mktemp -d)"
  trap 'rm -rf "$d"' RETURN

  local want got
  want="$("$explore" run --app nbody --ckpt-dir "$d/base" --ckpt-interval 2 \
    | grep '^digest:')"

  # The killed run must die by SIGKILL (exit 137), not finish or fail.
  local rc=0
  "$explore" run --app nbody --ckpt-dir "$d/kill" --ckpt-interval 2 \
    --kill-after-writes 2 || rc=$?
  if [[ "$rc" -ne 137 ]]; then
    echo "kill-resume smoke: expected SIGKILL (137), got exit $rc" >&2
    return 1
  fi

  got="$("$explore" run --app nbody --ckpt-dir "$d/kill" --ckpt-interval 2 \
    --resume | grep '^digest:')"
  if [[ "$got" != "$want" ]]; then
    echo "kill-resume smoke: digest mismatch after resume" >&2
    echo "  uninterrupted: $want" >&2
    echo "  resumed:       $got" >&2
    return 1
  fi
  echo "kill-resume smoke: resumed $got matches uninterrupted run"
}

# Disk-chaos smoke: durable nbody runs under each injected host-I/O fault
# class (io::FaultPlan); every fault-free --resume must reproduce the
# uninterrupted digest, and no run may ever load a corrupt epoch.  The
# subcommand itself does the digest comparison and exits non-zero on any
# divergence (exit codes are pinned in spp/rt/exit_codes.h).
chaos_disk_smoke() {
  local builddir="$1"
  echo "=== tier-1: disk-chaos smoke ($builddir) ==="
  "$builddir/tools/sppsim-explore" chaos-disk --nodes 2 --threads 8
}

if [[ "$MODE" == "all" || "$MODE" == "--sanitize-only" ]]; then
  echo "=== tier-1: address,undefined sanitized build ==="
  export UBSAN_OPTIONS="$UBSAN_HALT"
  run_suite build-asan \
    -DSPP_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  chaos_smoke build-asan
  kill_resume_smoke build-asan
  chaos_disk_smoke build-asan
  unset UBSAN_OPTIONS
fi

# The smokes without the sanitized ctest, for local use
# (docs/RECOVERY.md); CI runs them in --sanitize-only, survive as ctest's
# explore_survive.
if [[ "$MODE" == "--survive-only" ]]; then
  cmake -B build-asan -S . \
    -DSPP_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS" --target sppsim-explore
  export UBSAN_OPTIONS="$UBSAN_HALT"
  survive_smoke build-asan
  chaos_smoke build-asan
  kill_resume_smoke build-asan
  chaos_disk_smoke build-asan
  unset UBSAN_OPTIONS
fi

if [[ "$MODE" == "all" || "$MODE" == "--tsan-only" ]]; then
  echo "=== tier-1: thread sanitized build (fibers, tsan-annotated) ==="
  run_suite build-tsan \
    -DSPP_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

if [[ "$MODE" == "all" || "$MODE" == "--werror-only" ]]; then
  echo "=== tier-1: strict warnings (-Werror -Wshadow -Wconversion) ==="
  run_suite build-werror -DSPP_WERROR=ON
fi

# Gating: project-specific static analysis (docs/STATIC_ANALYSIS.md).
# spp-lint is self-contained C++ (no LLVM dependency), so this leg runs
# everywhere the simulator builds.
if [[ "$MODE" == "--lint-only" ]]; then
  echo "=== lint: spp-lint self-test + tree scan ==="
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON -DSPP_LINT=ON
  cmake --build build -j "$JOBS" --target spp-lint
  build/tools/spp_lint/spp-lint --self-test tests/lint_fixtures
  build/tools/spp_lint/spp-lint --repo-root . \
    --compile-db build/compile_commands.json \
    --json-out build/lint/arch_mutations.json
  echo "lint: tree clean; inventory at build/lint/arch_mutations.json"
fi

# Non-gating: clang static analyzer + clang-tidy concurrency checks.  The
# reference image is gcc-only, so absence of an LLVM toolchain is a clean
# skip, not a failure; CI runs this leg with continue-on-error anyway.
if [[ "$MODE" == "--analyze-only" ]]; then
  echo "=== analyze: clang static analyzer (non-gating) ==="
  if command -v scan-build >/dev/null 2>&1; then
    scan-build --status-bugs cmake -B build-analyze -S . \
      -DCMAKE_BUILD_TYPE=Debug
    scan-build --status-bugs cmake --build build-analyze -j "$JOBS"
  elif command -v clang++ >/dev/null 2>&1; then
    cmake -B build-analyze -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DCMAKE_CXX_COMPILER=clang++
    cmake --build build-analyze -j "$JOBS"
    # --analyze each TU against the same flags the real build used.
    python3 - <<'EOF'
import json, shlex, subprocess, sys
cmds = json.load(open("build-analyze/compile_commands.json"))
failures = 0
for c in cmds:
    args = shlex.split(c["command"])
    args = [a for a in args if a not in ("-c",)]
    out = subprocess.run(
        [args[0], "--analyze", "-Xanalyzer", "-analyzer-werror"]
        + args[1:-2] + [c["file"]],
        cwd=c["directory"], capture_output=True, text=True)
    if out.returncode != 0:
        failures += 1
        sys.stderr.write(out.stderr)
print(f"clang --analyze: {len(cmds)} TUs, {failures} with reports")
sys.exit(1 if failures else 0)
EOF
  else
    echo "analyze: no scan-build or clang++ on PATH; skipping (gcc-only image)"
  fi
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== analyze: clang-tidy concurrency-* ==="
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    git ls-files 'src/spp/*.cc' | xargs clang-tidy -p build \
      --checks='-*,concurrency-*' --warnings-as-errors='*'
  else
    echo "analyze: no clang-tidy on PATH; skipping concurrency checks"
  fi
fi

# Not part of "all": it needs its own Release build, so CI runs it as the
# separate bench-smoke job.  It gates on sim time and digest only (against
# bench/baselines); wall-clock numbers are recorded, never compared.
if [[ "$MODE" == "--bench-smoke" ]]; then
  echo "=== bench-smoke: Release build, every sppsim-bench entry ==="
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-bench -j "$JOBS" --target sppsim-bench
  mkdir -p build-bench/bench-out
  build-bench/bench/sppsim-bench --out build-bench/bench-out \
    --check bench/baselines
  echo "=== bench-smoke: perfbench self-check ==="
  python3 perfbench/run.py --self-check
fi

echo "=== tier-1: OK ==="
