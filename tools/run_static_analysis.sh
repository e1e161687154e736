#!/usr/bin/env bash
# Static-analysis driver: runs every check the local toolchain supports and
# skips (with a note) the ones whose tools are missing, so the script works
# in both the clang-equipped CI image and a gcc-only dev box.
#
# Checks:
#   1. clang thread-safety analysis (-Wthread-safety -Werror=thread-safety)
#   2. clang-tidy (config in .clang-tidy)
#   3. clang-format --dry-run -Werror
#   4. NO_THREAD_SAFETY_ANALYSIS escape-hatch audit (pure grep; always runs)
#   5. project lint (tools/lint.py: metrics registry and doc, blob and
#      shared-resources option sync, one resource owner, lock-order
#      comments, TODO tags, PermitUncheckedError reasons; always runs)
#
# Usage: tools/run_static_analysis.sh [--format-only|--tidy-only|--tsa-only|--lint-only]
set -u

cd "$(dirname "$0")/.."

MODE="${1:-all}"
FAILED=0
SKIPPED=0

note() { printf '== %s\n' "$*"; }

run_tsa() {
  if ! command -v clang++ >/dev/null 2>&1; then
    note "SKIP thread-safety analysis: clang++ not found"
    SKIPPED=$((SKIPPED + 1))
    return
  fi
  note "clang thread-safety analysis"
  local dir=build-tsa-check
  if cmake -B "$dir" -S . -DCMAKE_CXX_COMPILER=clang++ \
       -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null &&
     cmake --build "$dir" -j "$(nproc)"; then
    note "thread-safety analysis: PASS"
  else
    note "thread-safety analysis: FAIL"
    FAILED=1
  fi
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    note "SKIP clang-tidy: not found"
    SKIPPED=$((SKIPPED + 1))
    return
  fi
  note "clang-tidy"
  local dir=build-tidy
  cmake --preset tidy >/dev/null || { FAILED=1; return; }
  # Library + test sources; generated/third-party code is not in these dirs.
  if find src tests tools bench examples -name '*.cc' -print0 |
       xargs -0 -P "$(nproc)" -n 8 clang-tidy -p "$dir" --quiet; then
    note "clang-tidy: PASS"
  else
    note "clang-tidy: FAIL"
    FAILED=1
  fi
}

run_format() {
  if ! command -v clang-format >/dev/null 2>&1; then
    note "SKIP clang-format: not found"
    SKIPPED=$((SKIPPED + 1))
    return
  fi
  note "clang-format check"
  if find src tests tools bench examples \( -name '*.cc' -o -name '*.h' \) \
       -print0 | xargs -0 clang-format --dry-run -Werror; then
    note "clang-format: PASS"
  else
    note "clang-format: FAIL"
    FAILED=1
  fi
}

run_project_lint() {
  if ! command -v python3 >/dev/null 2>&1; then
    note "SKIP project lint: python3 not found"
    SKIPPED=$((SKIPPED + 1))
    return
  fi
  note "project lint (tools/lint.py)"
  if python3 tools/lint.py --self-test && python3 tools/lint.py; then
    note "project lint: PASS"
  else
    note "project lint: FAIL"
    FAILED=1
  fi
}

run_escape_audit() {
  note "NO_THREAD_SAFETY_ANALYSIS escape-hatch audit"
  # Every use must be in the documented allow-list (see DESIGN.md). CondVar
  # Wait functions are the only legitimate case: the analysis cannot relate
  # the member mutex to the caller's capability expression.
  local uses
  uses=$(grep -rn 'NO_THREAD_SAFETY_ANALYSIS' src tests bench examples |
         grep -v 'thread_annotations.h' |
         grep -v 'src/util/mutexlock.h' || true)
  if [ -n "$uses" ]; then
    note "unexpected NO_THREAD_SAFETY_ANALYSIS uses outside the allow-list:"
    printf '%s\n' "$uses"
    FAILED=1
  else
    note "escape-hatch audit: PASS"
  fi
}

case "$MODE" in
  --format-only) run_format ;;
  --tidy-only) run_tidy ;;
  --tsa-only) run_tsa ;;
  --lint-only) run_project_lint ;;
  all)
    run_tsa
    run_tidy
    run_format
    run_escape_audit
    run_project_lint
    ;;
  *)
    echo "usage: $0 [--format-only|--tidy-only|--tsa-only|--lint-only]" >&2
    exit 2
    ;;
esac

if [ "$FAILED" -ne 0 ]; then
  note "static analysis FAILED"
  exit 1
fi
note "static analysis OK ($SKIPPED check(s) skipped for missing tools)"
