package workload

import (
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"oclfpga/internal/obs"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/sim"
)

// goroutineProbe forwards to a sink and records the most goroutines alive
// while it was called: above the baseline means delivery ran on the
// recorder's delivery goroutine.
type goroutineProbe struct {
	obs.Sink
	peak atomic.Int64
}

func (p *goroutineProbe) Event(e obs.Event) {
	p.peak.Store(max(p.peak.Load(), int64(runtime.NumGoroutine())))
	p.Sink.Event(e)
}

// quietCount is the fewest goroutines seen over a few milliseconds: a joined
// delivery goroutine has handed back its result but may not have exited yet
// when the drive-loop call returns, here or in an earlier test.
func quietCount() int {
	n := runtime.NumGoroutine()
	for range 20 {
		time.Sleep(time.Millisecond)
		n = min(n, runtime.NumGoroutine())
	}
	return n
}

// settle waits for the goroutine count to fall back to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipeGoroutineJoined: every drive-loop return joins the delivery
// goroutine, whether the run completed and was finalized, was abandoned
// after a budgeted RunFor, or halted on a break.
func TestPipeGoroutineJoined(t *testing.T) {
	spec := RunSpec{Workload: "simbench", N: 1024, SampleEvery: 100, CheckpointEvery: 512}
	cases := map[string]func(t *testing.T, sink obs.Sink){
		"finalized": func(t *testing.T, sink obs.Sink) {
			if _, err := spec.Execute(sink); err != nil {
				t.Fatal(err)
			}
		},
		"abandoned RunFor": func(t *testing.T, sink obs.Sink) {
			r, err := spec.Build(spec.Observe(sink))
			if err != nil {
				t.Fatal(err)
			}
			var de *sim.DeadlockError
			if err := r.M.RunFor(40_000); !errors.As(err, &de) || !de.Timeout() {
				t.Fatalf("RunFor = %v, want a budget timeout", err)
			}
		},
		"break": func(t *testing.T, sink obs.Sink) {
			r, err := spec.build(spec.Observe(sink), func(o *sim.Options) {
				o.Breaks = []query.Break{{Kind: query.BreakCycle, N: 40_000}}
			})
			if err != nil {
				t.Fatal(err)
			}
			var be *sim.BreakError
			if err := r.Drive(); !errors.As(err, &be) {
				t.Fatalf("Drive = %v, want a break", err)
			}
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			base := quietCount()
			probe := &goroutineProbe{Sink: spillSink(t, spec, filepath.Join(t.TempDir(), "spill"))}
			run(t, probe)
			if probe.peak.Load() <= int64(base) {
				t.Fatalf("no delivery goroutine ran (peak %d, baseline %d)", probe.peak.Load(), base)
			}
			settle(t, base)
		})
	}
}
