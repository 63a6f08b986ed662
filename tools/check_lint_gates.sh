#!/usr/bin/env bash
# resim_lint self-checks (docs/CI.md, docs/LINT.md), registered as the
# ctest entry `lint_gates`. The linter must still have teeth: one seeded
# violation per rule flavor must make it exit non-zero naming that rule.
# Guards against a refactor that silently turns the linter into a
# yes-machine (rules not registered, the walker skipping src/, a drifted
# scan anchor):
#
#  * a std::cout in src/analysis/          -> iostream-in-lib
#  * a common -> core upward include       -> layering
#  * a dropped ParamRegistry registration  -> registry-drift (both sides)
#  * a dropped "stream" spelling in names.cpp -> enum-string-drift
#  * a raw mutex lock()/unlock() TU        -> lock-discipline
#
# Each seed lands in a fresh copy of the linted tree under mktemp; the
# checkout itself is never written.
#
# Usage: tools/check_lint_gates.sh path/to/resim_lint
set -euo pipefail

lint=$(realpath "$1")
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# A fresh copy of everything resim_lint reads, in $work/tree.
fresh_tree() {
  rm -rf "$work/tree"
  mkdir "$work/tree"
  cp -r "$root/src" "$root/tools" "$root/bench" "$root/examples" "$root/tests" "$work/tree/"
}

# Runs the linter over the seeded copy; it must fail, and its report
# (in $work/out.txt) must carry every pattern given.
expect_finding() {
  local what=$1
  shift
  if "$lint" --root "$work/tree" --baseline "$work/tree/tools/lint_baseline.txt" \
      > "$work/out.txt"; then
    echo "resim_lint passed a seeded $what"
    exit 1
  fi
  cat "$work/out.txt"
  for pattern in "$@"; do
    grep -q "$pattern" "$work/out.txt" || { echo "no finding matches '$pattern'"; exit 1; }
  done
}

echo "== unseeded copy is clean"
fresh_tree
"$lint" --root "$work/tree" --baseline "$work/tree/tools/lint_baseline.txt"

echo "== iostream-in-lib"
fresh_tree
cat > "$work/tree/src/analysis/seed_violation.cpp" <<'EOF'
#include <iostream>
void f() { std::cout << "hi\n"; }
EOF
expect_finding "iostream-in-lib violation" "seed_violation.cpp.*iostream-in-lib"

echo "== layering"
fresh_tree
cat > "$work/tree/src/common/seed_layering.hpp" <<'EOF'
#ifndef RESIM_COMMON_SEED_LAYERING_H
#define RESIM_COMMON_SEED_LAYERING_H
#include "core/config.hpp"
#endif
EOF
expect_finding "common->core upward include" \
    "seed_layering.hpp.*layering.*'common' may not depend on 'core'"

echo "== registry-drift"
fresh_tree
sed -i 's/RESIM_ACC(rob_size, unsigned)/RESIM_ACC(rob_size_gone, unsigned)/' \
    "$work/tree/src/config/param_registry.cpp"
expect_finding "dropped ParamRegistry registration" \
    "config.hpp.*registry-drift.*'rob_size'" \
    "param_registry.cpp.*registry-drift.*'rob_size_gone'"

echo "== enum-string-drift"
fresh_tree
sed -i 's/{"memory", "stream"}/{"memory"}/' "$work/tree/src/config/names.cpp"
expect_finding "enum spelling drop" "enum-string-drift.*'kStream'"

echo "== lock-discipline"
fresh_tree
cat > "$work/tree/src/driver/seed_lock.cpp" <<'EOF'
#include <mutex>
struct SeedQueue {
  std::mutex mu;
  void poke() {
    mu.lock();
    mu.unlock();
  }
};
EOF
expect_finding "raw mutex lock/unlock" "seed_lock.cpp.*lock-discipline"
echo "lint gates: PASS"
