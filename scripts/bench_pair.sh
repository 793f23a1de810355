#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the current tree.
#
#   scripts/bench_pair.sh <parent-ref> <workload> [pairs=10] [seed=42]
#
# Checks both sides out as git worktrees under target/pairs/ (the change side
# is HEAD plus whatever is staged or modified in tracked files, so stage new
# files first), builds the benchmark once per side, then alternates
# driver-form runs (`--seconds 10 --trace 0`, as BENCHMARK.json runs them),
# swapping which side goes first every pair. Prints each run, then per side
# the median and quartiles of every end-to-end metric, the pairs each side
# won, and the failed operations. Claim a gain only with >= 9/10 wins and a
# median gap wider than the parent's own q1..q3 spread, on seed 42 and on the
# held-out seed 7 (see benchmark/README.md).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seed=${4:-42}

root=$(git rev-parse --show-toplevel)
cd "$root"
work=target/pairs
mkdir -p "$work"
change_ref=$(git stash create)
change_ref=${change_ref:-HEAD}

cleanup() {
    for side in parent change; do
        git worktree remove --force "$work/$side" 2>/dev/null || true
    done
    # A `cargo clean` may have deleted a checkout that is still registered.
    git worktree prune
}
trap cleanup EXIT
cleanup

for side in parent change; do
    ref=$parent_ref
    [ "$side" = change ] && ref=$change_ref
    git worktree add --quiet --detach "$work/$side" "$ref"
    cargo build --quiet --release --offline \
        --manifest-path "$work/$side/benchmark/Cargo.toml"
    cp "$work/$side/benchmark/target/release/heap-benchmark" "$work/bin-$side"
done

runs=$work/runs-$workload-$seed.tsv
: >"$runs"
metrics="wall_s setup_s node_s_per_s peak_bytes_per_node"

# One driver-form run of a side; appends "pair side failed <metrics...>".
run_side() {
    local pair=$1 side=$2 line row
    line=$(cd "$work/$side" && "$root/$work/bin-$side" \
        --workload "$workload" --seed "$seed" --seconds 10 --trace 0 | tail -n 1)
    row="$pair\t$side\t$(sed -E 's/.*"failed": ([0-9]+).*/\1/' <<<"$line")"
    for metric in $metrics; do
        row+="\t$(sed -E "s/.*\"$metric\": \{\"value\": ([0-9.eE+-]+).*/\1/" <<<"$line")"
    done
    echo -e "$row" | tee -a "$runs"
}

echo -e "pair\tside\tfailed\t${metrics// /\\t}"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side "$pair" parent
        run_side "$pair" change
    else
        run_side "$pair" change
        run_side "$pair" parent
    fi
done

echo
echo "$workload, seed $seed, $pairs pairs: parent $(git rev-parse --short "$parent_ref"), change $(git rev-parse --short "$change_ref")"
column=4
for metric in $metrics; do
    for side in parent change; do
        awk -v side="$side" -v c="$column" '$2 == side { print $c }' "$runs" | sort -g |
            awk -v label="$metric $side" '
                { v[NR] = $1 }
                function q(p,   h, lo) {
                    h = (NR - 1) * p + 1; lo = int(h)
                    return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
                }
                END { printf "%-28s median %.6g  q1 %.6g  q3 %.6g  min %.6g  max %.6g\n",
                      label, q(0.5), q(0.25), q(0.75), v[1], v[NR] }'
    done
    # Higher is better for throughput only.
    awk -v c="$column" -v metric="$metric" '
        { v[$1, $2] = $c; if ($1 > n) n = $1 }
        END {
            for (i = 1; i <= n; i++) {
                d = v[i, "change"] - v[i, "parent"]
                if (metric == "node_s_per_s") d = -d
                if (d < 0) won++; else if (d > 0) lost++
            }
            printf "%-28s change better in %d, worse in %d of %d pairs\n", metric, won, lost, n
        }' "$runs"
    column=$((column + 1))
done
awk '{ failed[$2] += $3 } END { printf "failed operations: parent %d, change %d\n", failed["parent"], failed["change"] }' "$runs"
