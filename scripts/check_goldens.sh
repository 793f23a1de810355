#!/usr/bin/env bash
# Checks that the pinned outputs have not moved, and exits non-zero on any
# difference:
#
#   repro         `repro --scale test all` against the figures golden
#   metrics       `repro --scale test table1 --metrics-out` against the
#                 metrics exposition golden (minus its generated-at line)
#   fingerprints  the simulator's pinned fingerprints (heap-simnet
#                 `scheduler_core`) and the runner's pinned crash order and
#                 byte-identity tests
#
#   scripts/check_goldens.sh                  # all three
#   scripts/check_goldens.sh repro metrics    # some of them
#
# CI runs it with no argument, so a local run checks exactly what CI checks. A
# change meant to move a figure regenerates the golden in the same commit.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
golden=crates/bench/tests/golden

repro() {
    cargo run -q --release -p heap-bench --bin repro -- "$@"
}

check() {
    case $1 in
    repro)
        repro --scale test all | diff - "$golden/repro_scale_test_all.txt"
        ;;
    metrics)
        local out
        out=$(mktemp)
        repro --scale test table1 --metrics-out "$out" >/dev/null
        grep -v '^# generated-at' "$out" | diff - "$golden/metrics_scale_test.prom"
        rm -f "$out"
        ;;
    fingerprints)
        cargo test -q --release -p heap-simnet --test scheduler_core
        cargo test -q --release -p heap-workloads --lib -- --exact \
            runner::tests::faulted_crash_order_matches_pinned_fingerprint \
            runner::tests::slicing_and_wrapping_never_change_a_byte
        ;;
    *)
        sed -n '2,13p' "$0" >&2
        exit 2
        ;;
    esac
}

checks=("$@")
[ $# -gt 0 ] || checks=(repro metrics fingerprints)
for name in "${checks[@]}"; do
    echo "== $name" >&2
    check "$name"
done
echo "goldens unchanged" >&2
