package experiments

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"oclfpga/internal/obs"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/sim"
)

// The checkpoint/rewind determinism suite (DESIGN.md §14). Time-travel
// debugging rests on one property: re-executing a deterministic run and
// pausing at cycle N reconstructs exactly the state the original run had at
// N — regardless of whether the re-execution fast-forwards, and regardless
// of whether it pauses at an intermediate checkpoint cycle on the way. These
// tests pin that property across every experiment workload.

// rewindPlan is what pass 1 learns about one machine: where it ended, and
// which recorded checkpoint anchors the rewind target.
type rewindPlan struct {
	target int64 // N: the cycle whose state every pass must agree on
	anchor int64 // C: nearest recorded checkpoint cycle <= N (0 = none usable)
	hash   uint64
}

const rewindCkptEvery = 256

// TestCheckpointRewindDeterminism runs each workload four times per machine:
//
//	pass 1 (FF on)  records checkpoints and learns each machine's end cycle;
//	pass 2 (FF on)  pauses at the anchor checkpoint C and the target N;
//	pass 3 (FF off) same pauses, stepping every cycle;
//	pass 4 (FF on)  pauses at N only — no intermediate stop.
//
// The state hash captured at C must equal the recorded checkpoint's, and the
// full serialized state dumps at N must be byte-identical across passes 2-4:
// the checkpoint-anchored path and the from-cycle-0 path reconstruct the
// same machine, with fast-forward on or off.
func TestCheckpointRewindDeterminism(t *testing.T) {
	defer sim.SetFastForwardDisabled(false)
	for _, rn := range obsRunners {
		t.Run(rn.name, func(t *testing.T) {
			sim.SetFastForwardDisabled(false)
			plans := surveyRun(t, rn.run)
			usable := 0
			for _, p := range plans {
				if p.target > 0 {
					usable++
				}
			}
			if usable == 0 {
				t.Skip("every machine finishes too early for a rewind target")
			}

			full := make([][]int64, len(plans))
			targetOnly := make([][]int64, len(plans))
			for i, p := range plans {
				if p.target <= 0 {
					continue
				}
				if p.anchor > 0 && p.anchor < p.target {
					full[i] = []int64{p.anchor, p.target}
				} else {
					full[i] = []int64{p.target}
				}
				targetOnly[i] = []int64{p.target}
			}

			sim.SetFastForwardDisabled(false)
			ffCaps := captureRun(t, rn.run, full)
			sim.SetFastForwardDisabled(true)
			slowCaps := captureRun(t, rn.run, full)
			sim.SetFastForwardDisabled(false)
			directCaps := captureRun(t, rn.run, targetOnly)

			for i, p := range plans {
				if p.target <= 0 {
					continue
				}
				if p.anchor > 0 && p.anchor < p.target {
					for pass, caps := range map[string][]RewindCapture{"ff": ffCaps, "slow": slowCaps} {
						c := findCapture(caps, i, p.anchor)
						if c == nil {
							t.Fatalf("machine %d pass %s: no capture at checkpoint cycle %d", i, pass, p.anchor)
						}
						if c.Hash != p.hash {
							t.Errorf("machine %d pass %s: state hash at checkpoint cycle %d = %016x, recorded %016x",
								i, pass, p.anchor, c.Hash, p.hash)
						}
					}
				}
				ff := findCapture(ffCaps, i, p.target)
				slow := findCapture(slowCaps, i, p.target)
				direct := findCapture(directCaps, i, p.target)
				if ff == nil || slow == nil || direct == nil {
					t.Fatalf("machine %d: missing capture at target %d (ff=%v slow=%v direct=%v)",
						i, p.target, ff != nil, slow != nil, direct != nil)
				}
				if !bytes.Equal(ff.Dump, slow.Dump) {
					t.Errorf("machine %d: state dump at %d differs with fast-forward off", i, p.target)
				}
				if !bytes.Equal(ff.Dump, direct.Dump) {
					t.Errorf("machine %d: state dump at %d differs between checkpoint-anchored and direct re-execution",
						i, p.target)
				}
			}
		})
	}
}

// surveyRun is pass 1: run the workload with checkpoints recorded and derive
// each machine's rewind plan — target N at two-thirds of its end cycle,
// anchored at the last checkpoint at or before N.
func surveyRun(t *testing.T, fn func() error) []rewindPlan {
	t.Helper()
	EnableObserveForTest(128)
	EnableRewindForTest(rewindCkptEvery, nil)
	err := fn()
	ms := DisableObserveForTest()
	if _, herr := DisableRewindForTest(); herr != nil {
		t.Fatal(herr)
	}
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]rewindPlan, len(ms))
	for i, m := range ms {
		p := rewindPlan{target: 2 * m.Cycle() / 3}
		cks, err := obs.ExtractCheckpoints(m.Timeline().Events)
		if err != nil {
			t.Fatal(err)
		}
		for _, ck := range cks {
			if ck.Cycle <= p.target && ck.Cycle > p.anchor {
				p.anchor, p.hash = ck.Cycle, ck.StateHash
			}
		}
		plans[i] = p
	}
	return plans
}

// captureRun re-executes the workload with per-machine capture plans and
// returns the collected captures. Checkpoints stay enabled so the
// fast-forward grid matches pass 1 exactly in every mode.
func captureRun(t *testing.T, fn func() error, plans [][]int64) []RewindCapture {
	t.Helper()
	EnableObserveForTest(128)
	EnableRewindForTest(rewindCkptEvery, plans)
	err := fn()
	DisableObserveForTest()
	caps, herr := DisableRewindForTest()
	if herr != nil {
		t.Fatal(herr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return caps
}

func findCapture(caps []RewindCapture, machine int, cycle int64) *RewindCapture {
	for i := range caps {
		if caps[i].Machine == machine && caps[i].Cycle == cycle {
			return &caps[i]
		}
	}
	return nil
}

// TestSpillSimBenchRoundTrip pins the whole time-travel pipeline end to end
// on the benchmark workload: a checkpointed segmented spill whose container
// indexes answer queries byte-identically to a full scan, whose recorded
// checkpoints verify against a fresh re-execution, and whose rewound state
// dump matches the direct one.
func TestSpillSimBenchRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	res, err := SpillSimBench(512, dir, 128, rewindCkptEvery, 64)
	if err != nil {
		t.Fatal(err)
	}

	cks, err := query.Checkpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("spill recorded no checkpoints")
	}
	target := 2 * res.Cycles / 3
	var anchor *obs.Checkpoint
	for i := range cks {
		if cks[i].Cycle <= target && (anchor == nil || cks[i].Cycle > anchor.Cycle) {
			anchor = &cks[i]
		}
	}
	if anchor == nil || anchor.Cycle == 0 {
		t.Fatalf("no usable checkpoint at or before %d (have %d checkpoints)", target, len(cks))
	}

	// Indexed query == full scan, on events and on segment accounting.
	q, err := query.ParseQuery("kind=chan-stall")
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := query.Run(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := query.ScanAll(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := json.Marshal(indexed.Events)
	sb, _ := json.Marshal(scanned.Events)
	if !bytes.Equal(ib, sb) {
		t.Fatal("indexed query and full scan disagree")
	}
	if len(indexed.Events) == 0 {
		t.Fatal("stall-heavy workload produced no chan-stall events")
	}

	// Rewind: re-execute to the anchor, verify the recorded hash, continue to
	// the target; the dump must match a direct re-execution's byte for byte.
	mA, _, err := setupSimBench(512, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mA.RunTo(anchor.Cycle); err != nil {
		t.Fatal(err)
	}
	if mA.DesignHash() != anchor.DesignHash {
		t.Fatalf("design hash %016x, checkpoint recorded %016x", mA.DesignHash(), anchor.DesignHash)
	}
	if mA.StateHash() != anchor.StateHash {
		t.Fatalf("state hash at %d = %016x, checkpoint recorded %016x",
			anchor.Cycle, mA.StateHash(), anchor.StateHash)
	}
	if err := mA.RunTo(target); err != nil {
		t.Fatal(err)
	}
	mB, _, err := setupSimBench(512, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mB.RunTo(target); err != nil {
		t.Fatal(err)
	}
	da, _ := json.Marshal(mA.StateDump())
	db, _ := json.Marshal(mB.StateDump())
	if !bytes.Equal(da, db) {
		t.Fatal("checkpoint-anchored and direct state dumps differ")
	}
}
