#!/bin/sh
# verify.sh — the full pre-merge gate: static checks, a clean build, and the
# race-enabled test suite. A simulator tick loop runs on one goroutine, but
# inside each drive-loop call the recorder delivers sink records from a
# second one, and the supervisor, oclmon and perfbench's timing wrappers
# share state across goroutines, so all of it runs under the detector.
set -eux

cd "$(dirname "$0")/.."

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test -race ./...
(cd perfbench && go test -race ./...)

# Fuzz smoke: a few seconds each on the parser fuzz targets (spec parser,
# NDJSON replay, the flat binary codec, the manifest and its run-spec Meta),
# on the spill line encoder's identity with encoding/json, on the line
# decoder's fast path agreeing with encoding/json, and on slice
# invariance (random RunFor schedules must spill what one run spills). Any
# crasher fails the gate; the seed corpora alone already ran under
# `go test` above.
go test ./internal/fault -run '^$' -fuzz 'FuzzParseSpec$' -fuzztime 5s
go test ./internal/fault -run '^$' -fuzz 'FuzzParseSpecs$' -fuzztime 5s
go test ./internal/obs -run '^$' -fuzz 'FuzzReplayNDJSON$' -fuzztime 5s
go test ./internal/obs -run '^$' -fuzz 'FuzzFlatCodec$' -fuzztime 5s
go test ./internal/obs -run '^$' -fuzz 'FuzzManifest$' -fuzztime 5s
go test ./internal/workload -run '^$' -fuzz 'FuzzRunSpec$' -fuzztime 5s
go test ./internal/workload -run '^$' -fuzz 'FuzzSliceSchedule$' -fuzztime 5s
go test ./internal/obs -run '^$' -fuzz 'FuzzLineCodec$' -fuzztime 5s
go test ./internal/obs -run '^$' -fuzz 'FuzzLineDecode$' -fuzztime 5s
go test ./internal/obs/query -run '^$' -fuzz 'FuzzParseBreaks$' -fuzztime 5s
go test ./internal/obs/query -run '^$' -fuzz 'FuzzParseQuery$' -fuzztime 5s

# Observability artifacts: a real workload's timeline, metrics series, stall
# attribution, pprof profile, and NDJSON spill must all validate, round-trip
# byte-identically through their codecs (the spill replay is cross-checked
# against the buffered timeline), and the -json run report must parse as a
# single JSON document.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go run ./cmd/oclprof -workload chanstall -log=false -sample-every 500 \
  -timeline "$TMP/t.json" -metrics "$TMP/m.json" \
  -attr "$TMP/attr.json" -pprof "$TMP/attr.pb.gz" -spill "$TMP/spill.ndjson" \
  -spill-dir "$TMP/segs" -seg-lines 64 \
  -json > "$TMP/report.json"
go run ./cmd/obscheck -timeline "$TMP/t.json" -metrics "$TMP/m.json" \
  -report "$TMP/report.json" \
  -attr "$TMP/attr.json" -pprof "$TMP/attr.pb.gz" -spill "$TMP/spill.ndjson" \
  -spill-dir "$TMP/segs"
# One stream format: a segmented spill exported as NDJSON is the single-file
# spill of the same run, byte for byte — with rotation out of reach (one
# segment) and in reach (many).
go run ./cmd/oclprof -workload chanstall -log=false -sample-every 500 \
  -spill "$TMP/one.ndjson" -spill-dir "$TMP/one-seg" \
  -seg-lines 100000000 -seg-bytes 100000000000 > /dev/null
go run ./cmd/obscheck -export "$TMP/one-seg" | cmp "$TMP/one.ndjson" -
go run ./cmd/oclprof -workload chanstall -log=false -sample-every 500 \
  -spill "$TMP/rot.ndjson" -spill-dir "$TMP/rot-seg" -seg-lines 64 > /dev/null
go run ./cmd/obscheck -export "$TMP/rot-seg" | cmp "$TMP/rot.ndjson" -
go run ./cmd/benchjson < /dev/null > /dev/null  # benchjson stays runnable

# Time-travel smoke (DESIGN.md §14): a checkpointed spill, then (1) the
# at-cycle state dump must be byte-identical whether re-execution rewinds
# from a spill checkpoint, rides the -checkpoint-every grid, or replays from
# cycle 0; (2) a breakpointed re-execution must halt on the stalled consumer,
# and a cycle break inside matmul's -trace readout must halt in that host
# phase with exactly the state -at-cycle dumps there;
# (3) an indexed query over the spill and obscheck's integrity rows must
# succeed; (4) mutually-exclusive debug modes must exit 2 (a built binary,
# because `go run` collapses exit codes).
go build -o "$TMP/oclprof" ./cmd/oclprof
"$TMP/oclprof" -workload chanstall -log=false \
  -spill-dir "$TMP/tt-segs" -seg-lines 64 -checkpoint-every 512
"$TMP/oclprof" -workload chanstall -log=false \
  -at-cycle 1500 -spill-dir "$TMP/tt-segs" > "$TMP/at-rewind.json" 2> /dev/null
"$TMP/oclprof" -workload chanstall -log=false \
  -at-cycle 1500 -checkpoint-every 512 > "$TMP/at-grid.json" 2> /dev/null
"$TMP/oclprof" -workload chanstall -log=false \
  -at-cycle 1500 > "$TMP/at-direct.json" 2> /dev/null
cmp "$TMP/at-rewind.json" "$TMP/at-direct.json"
cmp "$TMP/at-grid.json" "$TMP/at-direct.json"
"$TMP/oclprof" -workload chanstall -log=false \
  -break 'chan:pipe.stall>50' > "$TMP/break.json" 2> /dev/null
grep -q '"unit": "consumer"' "$TMP/break.json"
"$TMP/oclprof" -workload matmul -stallmon -trace -log=false \
  -break 'cycle=23000' > "$TMP/break-readout.json" 2> /dev/null
"$TMP/oclprof" -workload matmul -stallmon -trace -log=false \
  -at-cycle 23000 > "$TMP/at-readout.json" 2> /dev/null
sed -n '/^  "state": {/,/^  }/p' "$TMP/break-readout.json" \
  | sed 's/^  //; 1s/"state": //' > "$TMP/break-readout-state.json"
cmp "$TMP/break-readout-state.json" "$TMP/at-readout.json"
"$TMP/oclprof" -query 'kind=chan-stall cycles=[5000,6000]' \
  -spill-dir "$TMP/tt-segs" > "$TMP/q-sealed.json" 2> /dev/null
grep -q '"kind": "chan-stall"' "$TMP/q-sealed.json"
go run ./cmd/obscheck -spill-dir "$TMP/tt-segs" | grep -q 'sealed'
RC=0
"$TMP/oclprof" -at-cycle 10 -break 'cycle=5' -workload chanstall -log=false > /dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ]
RC=0
"$TMP/oclprof" -at-cycle 10 -timeline /dev/null -workload chanstall -log=false > /dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ]
RC=0
"$TMP/oclprof" -query 'kind=exec' -workload chanstall -log=false > /dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ]

# Differential profiling smoke (DESIGN.md §15): a self-diff of two runs of the
# same deterministic workload must be neutral (exit 0), byte-stable across
# invocations, and round-trip through obscheck -diff; the indexed spill diff
# of the two spill directories above must agree. Diff misuse exits 2.
go run ./cmd/oclprof -workload chanstall -log=false -attr "$TMP/attr2.json" > /dev/null
"$TMP/oclprof" -diff "$TMP/attr.json" "$TMP/attr2.json" > "$TMP/diff.json" 2> /dev/null
"$TMP/oclprof" -diff "$TMP/attr.json" "$TMP/attr2.json" > "$TMP/diff-again.json" 2> /dev/null
cmp "$TMP/diff.json" "$TMP/diff-again.json"
go run ./cmd/obscheck -diff "$TMP/diff.json" | grep -q 'verdict neutral'
"$TMP/oclprof" -diff-spill "$TMP/segs" "$TMP/tt-segs" > "$TMP/diff-spill.json" 2> /dev/null
go run ./cmd/obscheck -diff "$TMP/diff-spill.json" | grep -q 'verdict neutral'
RC=0
"$TMP/oclprof" -diff "$TMP/attr.json" > /dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ]
RC=0
"$TMP/oclprof" -diff -spill-dir "$TMP/segs" "$TMP/attr.json" "$TMP/attr2.json" > /dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ]

# Self-healing smoke (DESIGN.md §16): rot the chanstall spill from the
# artifact run — one overwritten byte in a sealed segment — and let oclprof -scrub
# heal it by re-executing the run spec the manifest records. The verdict must
# be healthy, the segment byte-identical to before the damage, and a
# scan-only fsck must agree. Then rot it again and let obscheck -fsck -repair
# heal it through the same spec: the other tool must regenerate the same
# bytes.
PSEG="$(ls "$TMP/segs"/seg-*.flat | sort | head -1)"
cp "$PSEG" "$TMP/pseg-clean.flat"
printf '\377' | dd of="$PSEG" bs=1 seek=33 count=1 conv=notrunc 2> /dev/null
go build -o "$TMP/obscheck" ./cmd/obscheck
RC=0
"$TMP/obscheck" -q -fsck "$TMP/segs" || RC=$?  # scan-only: damage classified
[ "$RC" -eq 1 ]
"$TMP/oclprof" -scrub -spill-dir "$TMP/segs" > "$TMP/scrub.json"
grep -q '"healthy": true' "$TMP/scrub.json"
cmp "$PSEG" "$TMP/pseg-clean.flat"
"$TMP/obscheck" -q -fsck "$TMP/segs"
printf '\377' | dd of="$PSEG" bs=1 seek=33 count=1 conv=notrunc 2> /dev/null
"$TMP/obscheck" -q -fsck "$TMP/segs" -repair
cmp "$PSEG" "$TMP/pseg-clean.flat"

# oclmon smoke test: serve one small run on an ephemeral port, tail its
# SSE stream to the finalize frame (every frame must arrive: the count of
# id lines equals the finalize frame's "frames"), scrape /metrics, assert
# known gauges, and shut the server down cleanly.
go build -o "$TMP/oclmon" ./cmd/oclmon
"$TMP/oclmon" -addr localhost:0 -runs 1 -n 2048 2> "$TMP/oclmon.log" &
OCLMON_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(grep -o 'http://[0-9.:]*' "$TMP/oclmon.log" || true)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { cat "$TMP/oclmon.log"; exit 1; }
curl -fsSN "$ADDR/runs/run1/events" > "$TMP/events.txt"
FRAMES="$(sed -n 's/^data: {"endCycle":[0-9]*,"frames":\([0-9]*\)}$/\1/p' "$TMP/events.txt")"
[ -n "$FRAMES" ] || { echo "oclmon smoke: no finalize frame"; exit 1; }
IDS="$(grep -c '^id: ' "$TMP/events.txt")"
[ "$IDS" = "$FRAMES" ] || { echo "oclmon smoke: $IDS SSE frames, finalize says $FRAMES"; exit 1; }
curl -fsS "$ADDR/metrics" > "$TMP/metrics.txt"
grep -q '^oclmon_runs 1$' "$TMP/metrics.txt"
grep -q '^oclmon_cycles{' "$TMP/metrics.txt"
grep -qx 'oclmon_sse_dropped_total{run="run1"} 0' "$TMP/metrics.txt"
curl -fsS "$ADDR/" > /dev/null
kill "$OCLMON_PID"
wait "$OCLMON_PID" || true

# oclmon kill-and-recover smoke: start a long run with a durable spill,
# SIGKILL the server mid-run, and restart it on the same directory. The
# crashed run must be re-executed deterministically to completion, and the
# stitched spill must replay byte-identically to the timeline the recovered
# server serves.
SPILL="$TMP/mon-spill"
"$TMP/oclmon" -addr localhost:0 -runs 1 -n 65536 \
  -spill-dir "$SPILL" -seg-lines 1024 2> "$TMP/oclmon-crash.log" &
OCLMON_PID=$!
for _ in $(seq 1 100); do
    ls "$SPILL"/run1/seg-*.flat > /dev/null 2>&1 && break
    sleep 0.1
done
ls "$SPILL"/run1/seg-*.flat > /dev/null  # at least one sealed segment
kill -9 "$OCLMON_PID"
wait "$OCLMON_PID" || true
! grep -q '"complete": true' "$SPILL/run1/manifest.json"  # crashed mid-run

"$TMP/oclmon" -addr localhost:0 -runs 0 \
  -spill-dir "$SPILL" -seg-lines 1024 2> "$TMP/oclmon-recover.log" &
OCLMON_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(grep -o 'http://[0-9.:]*' "$TMP/oclmon-recover.log" || true)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { cat "$TMP/oclmon-recover.log"; exit 1; }
grep -q 're-executing crashed run run1' "$TMP/oclmon-recover.log"
DONE=""
for _ in $(seq 1 300); do
    curl -fsS "$ADDR/metrics" > "$TMP/metrics-recover.txt"
    if grep -q '^oclmon_run_done{run="run1"} 1$' "$TMP/metrics-recover.txt"; then
        DONE=1
        break
    fi
    sleep 0.2
done
[ -n "$DONE" ] || { cat "$TMP/oclmon-recover.log"; exit 1; }
grep -q '^oclmon_runs_completed_total 1$' "$TMP/metrics-recover.txt"
curl -fsS "$ADDR/runs" | grep -q '"recovered": *true'
curl -fsS "$ADDR/runs/run1/timeline.json" > "$TMP/t-recovered.json"
kill "$OCLMON_PID"
wait "$OCLMON_PID" || true
grep -q '"complete": true' "$SPILL/run1/manifest.json"  # recovery committed
go run ./cmd/obscheck -spill-dir "$SPILL/run1" -timeline "$TMP/t-recovered.json"

# Disk-fault chaos smoke (DESIGN.md §16): rot the recovered run's spill at
# rest — a flipped byte in a sealed segment, torn commit debris — and reboot
# the server on the directory. The boot scrub must repair
# the segment by deterministic re-execution, byte-identically, and report no
# quarantine; obscheck -fsck then certifies the healed directory, and its
# report is the CI artifact (FSCK_OUT, default $TMP).
FSCK_OUT="${FSCK_OUT:-$TMP}"
mkdir -p "$FSCK_OUT"
MSEG="$(ls "$SPILL"/run1/seg-*.flat | sort | head -1)"
cp "$MSEG" "$TMP/mseg-clean.flat"
printf '\377' | dd of="$MSEG" bs=1 seek=42 count=1 conv=notrunc 2> /dev/null
printf '{torn' > "$SPILL/run1/manifest.json.tmp"
RC=0
"$TMP/obscheck" -q -fsck "$SPILL/run1" || RC=$?  # scan-only: damage classified
[ "$RC" -eq 1 ]
"$TMP/oclmon" -addr localhost:0 -runs 0 \
  -spill-dir "$SPILL" -seg-lines 1024 2> "$TMP/oclmon-scrub.log" &
OCLMON_PID=$!
ADDR=""
for _ in $(seq 1 300); do
    ADDR="$(grep -o 'http://[0-9.:]*' "$TMP/oclmon-scrub.log" || true)"
    [ -n "$ADDR" ] && break
    sleep 0.2
done
[ -n "$ADDR" ] || { cat "$TMP/oclmon-scrub.log"; exit 1; }
grep -q 'boot scrub repaired' "$TMP/oclmon-scrub.log"
curl -fsS "$ADDR/metrics" > "$TMP/metrics-scrub.txt"
grep -q '^oclmon_runs_quarantined 0$' "$TMP/metrics-scrub.txt"
grep -q '^oclmon_spill_bytes ' "$TMP/metrics-scrub.txt"
curl -fsS "$ADDR/runs" | grep -q '"done": *true'
kill "$OCLMON_PID"
wait "$OCLMON_PID" || true
cmp "$MSEG" "$TMP/mseg-clean.flat"  # re-executed segment byte-identical
"$TMP/obscheck" -fsck "$SPILL/run1" -fsck-report "$FSCK_OUT/fsck-report.json" \
  | grep -q 'fsck healthy'
grep -q '"healthy": true' "$FSCK_OUT/fsck-report.json"

# Fleet smoke: a two-worker fleet, one long run, SIGKILL the owning worker
# through the chaos endpoint. The survivor must steal the spill lease and
# replay-recover the run to completion, and the timeline the fleet serves
# afterwards must byte-match a replay of the stitched spill.
FSPILL="$TMP/fleet-spill"
"$TMP/oclmon" -addr localhost:0 -runs 0 -workers 2 \
  -spill-dir "$FSPILL" -seg-lines 256 2> "$TMP/fleet.log" &
FLEET_PID=$!
FADDR=""
for _ in $(seq 1 100); do
    FADDR="$(grep 'fleet front end listening' "$TMP/fleet.log" | grep -o 'http://[0-9.:]*' || true)"
    [ -n "$FADDR" ] && break
    sleep 0.1
done
[ -n "$FADDR" ] || { cat "$TMP/fleet.log"; exit 1; }
curl -fsS "$FADDR/readyz" | grep -q 'ready: 2/2'
curl -fsS -X POST "$FADDR/runs?n=60000" > "$TMP/admit.json"
RUN_ID="$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$TMP/admit.json")"
RUN_WORKER="$(sed -n 's/.*"worker":"\([^"]*\)".*/\1/p' "$TMP/admit.json")"
[ -n "$RUN_ID" ] && [ -n "$RUN_WORKER" ]
for _ in $(seq 1 200); do
    ls "$FSPILL/$RUN_WORKER/$RUN_ID"/seg-*.flat > /dev/null 2>&1 && break
    sleep 0.1
done
ls "$FSPILL/$RUN_WORKER/$RUN_ID"/seg-*.flat > /dev/null
curl -fsS -X POST "$FADDR/fleet/kill?worker=$RUN_WORKER" > /dev/null
! grep -q '"complete": true' "$FSPILL/$RUN_WORKER/$RUN_ID/manifest.json"  # killed mid-run
FLEET_DONE=""
for _ in $(seq 1 600); do
    if curl -fsS "$FADDR/runs" > "$TMP/fleet-runs.json" 2>/dev/null \
       && grep -q '"done": *true' "$TMP/fleet-runs.json" \
       && grep -q '"recovered": *true' "$TMP/fleet-runs.json"; then
        FLEET_DONE=1
        break
    fi
    sleep 0.2
done
[ -n "$FLEET_DONE" ] || { cat "$TMP/fleet.log"; exit 1; }
grep -q 'adopted' "$TMP/fleet.log"  # the handoff actually ran
curl -fsS "$FADDR/runs/$RUN_ID/timeline.json" > "$TMP/t-fleet.json"
curl -fsS "$FADDR/metrics" | grep -q '^oclmon_takeovers_total 1$'
kill "$FLEET_PID"
wait "$FLEET_PID" || true
go run ./cmd/obscheck -spill-dir "$FSPILL/$RUN_WORKER/$RUN_ID" -timeline "$TMP/t-fleet.json"

# Load/chaos harness smoke: a short storm with a mid-storm kill must drive
# every admitted run to completion, and its report must clear the benchjson
# fleet gates (admission latency, full completion, bounded recovery).
go build -o "$TMP/oclstorm" ./cmd/oclstorm
"$TMP/oclstorm" -oclmon "$TMP/oclmon" -workers 2 -runs 12 -clients 6 -n 2000 \
  -kill-after 1s -timeout 120s -out "$TMP/storm.json" 2> "$TMP/storm.log" \
  || { cat "$TMP/storm.log"; exit 1; }
go run ./cmd/benchjson -fleet "$TMP/storm.json" \
  -gate 'fleet-runs-completed>=12' \
  -gate 'fleet-recovery-ms<=60000' \
  -gate 'fleet-admit-p99-ms<=5000' < /dev/null > /dev/null

# Timing gates run last, so a red gate still fails the script but no longer
# keeps the artifact, recovery, disk-chaos and fleet smokes above from running.
# Recorder-overhead gates: a short run of the throughput benchmarks must keep
# the recorder's cost within 10% of the unobserved fast path (the flat
# zero-allocation hot path is what this buys) and the rewind checkpoint grid
# within 2% of the plain observed run. The indexed query engine must answer a
# narrow query at least 10x faster than an unpruned decode of every segment
# of the same spill (BenchmarkQuerySpill itself fails when the index prunes
# nothing), and verifying every segment's file checksum on the spill read
# path must cost no more than 2% over a load that skips it.
go test -run '^$' \
  -bench 'SimThroughput/(Simulate$|SimulateObserved$|SimulateCheckpointed$)|QuerySpill|SpillLoad$' \
  -benchmem -benchtime 40x -count 3 . \
  | go run ./cmd/benchjson \
      -gate 'observe-overhead-pct<=10' \
      -gate 'checkpoint-overhead-pct<=2' \
      -gate 'query-speedup-x>=10' \
      -gate 'scrub-verify-overhead-pct<=2' > /dev/null

# The indexed spill diff must beat a full replay of both spills by at least
# 5x. On these spills every segment holds attribution input, so the index
# prunes nothing and the gate prices the container walk against loading both
# spills and replaying them through a recorder.
go test -run '^$' -bench 'DiffSpill' -benchtime 5x -count 1 . \
  | go run ./cmd/benchjson -gate 'diff-spill-speedup-x>=5' > /dev/null
