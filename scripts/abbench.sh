#!/bin/sh
# abbench.sh — quick A/B recorder-overhead comparison: a baseline git ref
# (default HEAD) against the working tree. Both sides run the plain and
# observed throughput benchmarks briefly (plus the stepped-cycle ones, for
# the delta table only), benchjson derives each side's
# observe-overhead-pct, and the script prints the delta. Exits non-zero when
# the working tree's overhead regresses by more than ABBENCH_TOL percentage
# points (default 5 — generous because short runs are noisy; the hard
# <=10% bound is enforced separately by scripts/verify.sh).
#
#   ./scripts/abbench.sh              # HEAD vs working tree
#   ./scripts/abbench.sh origin/main  # explicit baseline ref
#
# Set ABBENCH_OUT to a directory to keep both sides' benchjson documents and
# the benchjson -diff delta table (CI uploads these as artifacts).
set -eu

cd "$(dirname "$0")/.."

REF="${1:-HEAD}"
BENCHTIME="${ABBENCH_BENCHTIME:-20x}"
COUNT="${ABBENCH_COUNT:-3}"
TOL="${ABBENCH_TOL:-5}"

TMP="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$TMP/base" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

git worktree add --quiet --detach "$TMP/base" "$REF"

# Besides the overhead pair, each side runs the stepped-cycle benchmarks
# (SimulateSlowPath, and E4StallMonitor, whose ibuffers poll every cycle) so
# the benchjson -diff table shows per-cycle interpreter cost. E4StallMonitor
# has no sub-benchmarks, so it needs its own -bench pattern.
bench() (
    cd "$1"
    go test -run '^$' -bench 'SimThroughput/(Simulate$|SimulateObserved$|SimulateSlowPath$)' \
        -benchmem -benchtime "$BENCHTIME" -count "$COUNT" .
    go test -run '^$' -bench 'E4StallMonitor$' \
        -benchmem -benchtime "$BENCHTIME" -count "$COUNT" .
)

overhead() {
    sed -n 's/.*"observe-overhead-pct": \([-0-9.eE+]*\).*/\1/p' "$1"
}

bench "$TMP/base" | go run ./cmd/benchjson > "$TMP/base.json"
bench . | go run ./cmd/benchjson > "$TMP/tree.json"

if [ -n "${ABBENCH_OUT:-}" ]; then
    mkdir -p "$ABBENCH_OUT"
    cp "$TMP/base.json" "$ABBENCH_OUT/bench-base.json"
    cp "$TMP/tree.json" "$ABBENCH_OUT/bench-tree.json"
    go run ./cmd/benchjson -diff "$TMP/base.json" "$TMP/tree.json" \
        > "$ABBENCH_OUT/bench-diff.txt"
fi

BASE="$(overhead "$TMP/base.json")"
TREE="$(overhead "$TMP/tree.json")"

if [ -z "$TREE" ]; then
    echo "abbench: working tree produced no observe-overhead-pct" >&2
    exit 1
fi
if [ -z "$BASE" ]; then
    echo "abbench: baseline $REF has no observed benchmark; tree overhead ${TREE}% (no delta)"
    exit 0
fi

awk -v base="$BASE" -v tree="$TREE" -v tol="$TOL" -v ref="$REF" 'BEGIN {
    delta = tree - base
    printf "abbench: observe-overhead-pct %s=%.2f tree=%.2f delta=%+.2f (tolerance +%s)\n",
        ref, base, tree, delta, tol
    exit (delta > tol) ? 1 : 0
}'
