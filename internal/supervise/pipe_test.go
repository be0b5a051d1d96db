package supervise_test

import (
	"errors"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"
	"time"

	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
	"oclfpga/internal/supervise"
)

// Failure modes of pipelined sink delivery: inside a drive-loop call the
// recorder hands records to a delivery goroutine (obs/pipe.go), so a sink
// fault happens off the run goroutine. The supervisor's contract must not
// notice.

// lateDetonator panics once, after more than a full hand-off batch of
// events has arrived, so the panic is raised on the delivery goroutine. It
// keeps the stack of the panicking call as evidence of where it ran. Later
// calls succeed: only the re-raise can fail the run.
type lateDetonator struct {
	left  int
	stack string
}

func (d *lateDetonator) Event(obs.Event) {
	if d.left--; d.left == -1 {
		d.stack = string(debug.Stack())
		panic("sink detonated off the run goroutine")
	}
}
func (d *lateDetonator) Sample(obs.Sample)    {}
func (d *lateDetonator) Finalize(int64) error { return nil }

func TestDeliveryGoroutinePanicFailsRun(t *testing.T) {
	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	sink := &lateDetonator{left: 300}
	done := make(chan supervise.Outcome, 1)
	err := sup.Submit(supervise.Spec{
		ID: "late-panic", Workload: "late-panic",
		Start: func() (*sim.Machine, error) { return startBench(t, 2048, false, sink), nil },
		Done:  func(_ *sim.Machine, out supervise.Outcome) { done <- out },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.State != supervise.StateFailed || out.PanicValue != "sink detonated off the run goroutine" {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Diagnostic == nil || out.Diagnostic.Reason != sim.ReasonPanic {
		t.Fatalf("diagnostic = %+v", out.Diagnostic)
	}
	if !strings.Contains(sink.stack, "deliverLoop") {
		t.Fatalf("the sink did not panic on the delivery goroutine:\n%s", sink.stack)
	}
	if st := sup.Stats(); st.Panics != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A write fault in the middle of a spilled run lands on the delivery
// goroutine; it must still come back as the sink's sticky error through
// ObserveErr, and FinalizeRetry must report it as permanent.
func TestMidRunWriteFaultSurfaces(t *testing.T) {
	ffs := obs.NewFaultFS(nil)
	seg, err := obs.NewSegmentSink(obs.SegmentConfig{
		Dir: filepath.Join(t.TempDir(), "spill"), Design: "simbench", SampleEvery: 500,
		MaxLines: 32, FS: ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ffs.Arm(3, obs.FaultWrite, obs.FaultENOSPC)
	sup := supervise.New(supervise.Config{
		Slots: 1, Retry: supervise.Backoff{Base: 1}, RetryAttempts: 2, Sleep: func(time.Duration) {},
	})
	defer sup.Close()
	type result struct {
		m   *sim.Machine
		out supervise.Outcome
	}
	done := make(chan result, 1)
	err = sup.Submit(supervise.Spec{
		ID: "enospc", Workload: "enospc", FinalizeRetry: seg.RetryFinalize,
		Start: func() (*sim.Machine, error) { return startBench(t, 256, false, seg), nil },
		Done:  func(m *sim.Machine, out supervise.Outcome) { done <- result{m, out} },
	})
	if err != nil {
		t.Fatal(err)
	}
	r := <-done
	if ffs.Injected() != 1 {
		t.Fatalf("fault fired %d times, want 1", ffs.Injected())
	}
	if r.out.State != supervise.StateFailed || r.out.SinkRetries != 2 {
		t.Fatalf("outcome = %+v", r.out)
	}
	if !strings.Contains(r.out.Err.Error(), "observe sink failed") || !errors.Is(r.out.Err, syscall.ENOSPC) {
		t.Fatalf("err = %v", r.out.Err)
	}
	if err := r.m.ObserveErr(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ObserveErr = %v, want ENOSPC", err)
	}
	if r.m.Observer().EventCount() < 3*32 {
		t.Fatalf("only %d events: the fault did not land mid-run", r.m.Observer().EventCount())
	}
}
