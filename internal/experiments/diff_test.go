package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"oclfpga/internal/fault"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/analyze"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/sim"
	"oclfpga/internal/workload"
)

// captureAttributed runs fn with the recorder injected into every machine it
// creates and returns, per machine, the stall attribution and metrics series.
func captureAttributed(t *testing.T, fn func() error) (attrs []*analyze.Attribution, series []*obs.Series) {
	t.Helper()
	EnableObserveForTest(128)
	err := fn()
	ms := DisableObserveForTest()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("runner created no machines through newSim")
	}
	for _, m := range ms {
		attrs = append(attrs, analyze.AttributeRecorder(m.Observer()))
		series = append(series, m.Series())
	}
	return attrs, series
}

// TestDiffSelfNeutral is the diff engine's acceptance gate across the whole
// experiment matrix: diffing each machine's fast-forward-off run against its
// fast-forward-on twin (the same deterministic run, simulated two ways) must
// yield an all-neutral, byte-stable report — every row neutral, no critical
// path shift, no series divergence, and two serializations byte-identical.
func TestDiffSelfNeutral(t *testing.T) {
	defer sim.SetFastForwardDisabled(false)
	for _, rn := range obsRunners {
		t.Run(rn.name, func(t *testing.T) {
			sim.SetFastForwardDisabled(true)
			slowA, slowS := captureAttributed(t, rn.run)
			sim.SetFastForwardDisabled(false)
			fastA, fastS := captureAttributed(t, rn.run)
			if len(slowA) != len(fastA) {
				t.Fatalf("machine count differs: %d vs %d", len(slowA), len(fastA))
			}
			for i := range slowA {
				r := diff.Compare(slowA[i], fastA[i], slowS[i], fastS[i], diff.DefaultThresholds())
				if r.Verdict != diff.Neutral {
					t.Errorf("machine %d: self-diff verdict %q", i, r.Verdict)
				}
				for _, rd := range r.Rows {
					if rd.Delta != 0 || rd.Verdict != diff.Neutral {
						t.Errorf("machine %d: row %s/%s/%s delta %d verdict %q",
							i, rd.Unit, rd.Op, rd.Resource, rd.Delta, rd.Verdict)
					}
				}
				if r.Critical.Delta != 0 || len(r.Critical.Entered) != 0 || len(r.Critical.Left) != 0 {
					t.Errorf("machine %d: self-diff critical path shifted", i)
				}
				for _, d := range r.Series {
					if d.Delta != 0 || d.MaxDivergence != 0 {
						t.Errorf("machine %d: series %s diverged: %+v", i, d.Metric, d)
					}
				}
				if err := r.Validate(); err != nil {
					t.Errorf("machine %d: %v", i, err)
				}
				var w1, w2 bytes.Buffer
				if err := diff.WriteReport(&w1, r); err != nil {
					t.Fatal(err)
				}
				r2 := diff.Compare(slowA[i], fastA[i], slowS[i], fastS[i], diff.DefaultThresholds())
				if err := diff.WriteReport(&w2, r2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
					t.Errorf("machine %d: identical self-diffs serialized differently", i)
				}
			}
		})
	}
}

// runSimBenchFaulted runs the stall-heavy benchmark design observed, with an
// optional fault plan, and returns its attribution and series.
func runSimBenchFaulted(t *testing.T, n int, plan *fault.Plan) (*analyze.Attribution, *obs.Series) {
	t.Helper()
	d, err := CompileSimBench(n)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(d, sim.Options{Observe: &obs.Config{SampleEvery: 128}, Fault: plan})
	if _, err := workload.StageStallPipe(m, n); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return analyze.AttributeRecorder(m.Observer()), m.Series()
}

// TestDiffFaultRegressed pins the other half of the acceptance gate: a seeded
// fault-injected variant of the same design — the consumer's read endpoint of
// "pipe" frozen for a window — must be flagged regressed, with the regression
// attributed to the affected (unit, op, resource) rows on channel "pipe" and
// only neutral or improved verdicts elsewhere.
func TestDiffFaultRegressed(t *testing.T) {
	const n = 256
	base, baseS := runSimBenchFaulted(t, n, nil)
	plan, err := fault.ParseSpecs("freeze-read:pipe@200+4000")
	if err != nil {
		t.Fatal(err)
	}
	faulted, faultedS := runSimBenchFaulted(t, n, plan)

	r := diff.Compare(base, faulted, baseS, faultedS, diff.DefaultThresholds())
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Verdict != diff.Regressed {
		t.Fatalf("fault-injected variant verdict %q, want regressed", r.Verdict)
	}
	if r.Verdict.ExitCode() != 3 {
		t.Fatalf("regressed exit code %d, want 3", r.Verdict.ExitCode())
	}
	var pipeRegressed bool
	for _, rd := range r.Rows {
		if rd.Verdict == diff.Regressed && rd.Resource == "pipe" && rd.Op == "read-stall" {
			pipeRegressed = true
			if rd.Delta <= 0 {
				t.Fatalf("regressed pipe row with non-positive delta: %+v", rd)
			}
		}
		if rd.Verdict == diff.Regressed && rd.Resource != "pipe" && rd.Resource != "tbl#0" && rd.Resource != "tbl#1" {
			t.Errorf("regression attributed off the affected channel/memory: %+v", rd)
		}
	}
	if !pipeRegressed {
		t.Fatal("frozen channel's read-stall row not flagged regressed")
	}

	// The frozen window also shows up in the sampled counters.
	var sawStalls bool
	for _, d := range r.Series {
		if d.Metric == "chan:pipe:readStalls" && d.Delta > 0 {
			sawStalls = true
		}
	}
	if !sawStalls {
		t.Error("chan:pipe:readStalls did not increase in the series section")
	}
}

// TestDiffSpillMatchesFullReplay proves the indexed spill walk is exactly the
// replay route: diffing two same-seed spill directories through the sidecar
// indexes yields a byte-identical report to replaying both spills and
// comparing the reconstructed timelines' attributions — and, the runs being
// deterministic twins, an all-neutral one.
func TestDiffSpillMatchesFullReplay(t *testing.T) {
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	if _, err := SpillSimBench(512, dirA, 256, 1024, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := SpillSimBench(512, dirB, 256, 1024, 64); err != nil {
		t.Fatal(err)
	}

	r, sa, sb, err := diff.CompareSpills(dirA, dirB, diff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Verdict != diff.Neutral {
		t.Fatalf("same-seed spill diff verdict %q", r.Verdict)
	}
	if sa.SegmentsTotal == 0 || sa.SegmentsRead > sa.SegmentsTotal || sb.SegmentsRead > sb.SegmentsTotal {
		t.Fatalf("segment accounting wrong: %+v / %+v", sa, sb)
	}

	replayAttr := func(dir string) *analyze.Attribution {
		log, err := obs.LoadSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		tl, _, err := log.Replay()
		if err != nil {
			t.Fatal(err)
		}
		return analyze.Attribute(tl)
	}
	want := diff.Compare(replayAttr(dirA), replayAttr(dirB), nil, nil, diff.DefaultThresholds())

	var got, ref bytes.Buffer
	if err := diff.WriteReport(&got, r); err != nil {
		t.Fatal(err)
	}
	if err := diff.WriteReport(&ref, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("indexed spill diff differs from full replay:\n%s", firstDiff(got.Bytes(), ref.Bytes()))
	}
}
