#!/bin/sh
# bench.sh — run the full benchmark suite and record the numbers.
#
# Runs every benchmark three times with allocation stats and converts the
# output into BENCH_<n>.json (ns/op, simcycles/s, B/op, every custom metric,
# plus the derived fast-forward speedup, observability-recorder overhead,
# supervision overhead, checkpoint-grid overhead, and indexed-query speedup,
# stamped with the host fingerprint). Pass the output filename as $1 to
# target a specific trajectory point; default BENCH_10.json. The newest
# earlier BENCH_*.json is fingerprint-checked as the baseline, so numbers
# recorded on a different host warn instead of silently joining a trajectory,
# and the run ends with the benchjson -diff delta table against it.
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_10.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

BASELINE=""
for f in $(ls BENCH_*.json 2>/dev/null | sort -V -r); do
    if [ "$f" != "$OUT" ]; then
        BASELINE="$f"
        break
    fi
done

go test -run '^$' -bench . -benchmem -count 3 . | tee "$RAW"
if [ -n "$BASELINE" ]; then
    go run ./cmd/benchjson -baseline "$BASELINE" < "$RAW" > "$OUT"
else
    go run ./cmd/benchjson < "$RAW" > "$OUT"
fi
echo "wrote $OUT"
if [ -n "$BASELINE" ]; then
    echo "delta vs $BASELINE:"
    go run ./cmd/benchjson -diff "$BASELINE" "$OUT"
fi
