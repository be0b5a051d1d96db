package supervise

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"oclfpga/internal/device"
	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
)

// quickDesign is a single kernel storing i into dst[i] for n items — a run
// that completes in a few hundred cycles.
func quickDesign(t testing.TB, n int64) *hls.Design {
	t.Helper()
	p := kir.NewProgram("quick")
	k := p.AddKernel("k", kir.SingleTask)
	dst := k.AddGlobal("dst", kir.I32)
	b := k.NewBuilder()
	b.ForN("i", n, nil, func(lb *kir.Builder, i kir.Val, _ []kir.Val) []kir.Val {
		lb.Store(dst, i, i)
		return nil
	})
	d, err := hls.Compile(p, device.StratixV(), hls.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hangDesign is a kernel reading a channel nobody writes — a genuine
// deadlock the stall limit diagnoses.
func hangDesign(t testing.TB) *hls.Design {
	t.Helper()
	p := kir.NewProgram("hang")
	pipe := p.AddChan("pipe", 4, kir.I32)
	k := p.AddKernel("k", kir.SingleTask)
	dst := k.AddGlobal("dst", kir.I32)
	b := k.NewBuilder()
	b.ForN("i", 8, nil, func(lb *kir.Builder, i kir.Val, _ []kir.Val) []kir.Val {
		lb.Store(dst, i, lb.ChanRead(pipe))
		return nil
	})
	d, err := hls.Compile(p, device.StratixV(), hls.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// startQuick launches quickDesign on a fresh machine.
func startQuick(t testing.TB, d *hls.Design, opts sim.Options) func() (*sim.Machine, error) {
	return func() (*sim.Machine, error) {
		m := sim.New(d, opts)
		dst, err := m.NewBuffer("dst", kir.I32, 64)
		if err != nil {
			return nil, err
		}
		if _, err := m.Launch("k", sim.Args{"dst": dst}); err != nil {
			return nil, err
		}
		return m, nil
	}
}

// collect gathers outcomes as Done fires.
type collect struct {
	mu   sync.Mutex
	outs []Outcome
	done chan struct{}
	want int
}

func newCollect(want int) *collect {
	return &collect{done: make(chan struct{}), want: want}
}

func (c *collect) cb(_ *sim.Machine, out Outcome) {
	c.mu.Lock()
	c.outs = append(c.outs, out)
	if len(c.outs) == c.want {
		close(c.done)
	}
	c.mu.Unlock()
}

func (c *collect) wait(t *testing.T) []Outcome {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		t.Fatal("outcomes did not arrive")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Outcome(nil), c.outs...)
}

func TestCompletedRun(t *testing.T) {
	d := quickDesign(t, 32)
	s := New(Config{Slots: 1, Queue: 2})
	defer s.Close()
	c := newCollect(1)
	if err := s.Submit(Spec{ID: "r1", Workload: "quick", Start: startQuick(t, d, sim.Options{}), Done: c.cb}); err != nil {
		t.Fatal(err)
	}
	out := c.wait(t)[0]
	if out.State != StateCompleted || out.Err != nil || out.Cycles == 0 {
		t.Fatalf("outcome = %+v", out)
	}
	st := s.Stats()
	if st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeadlockClassifiedWithDiagnostic(t *testing.T) {
	d := hangDesign(t)
	s := New(Config{Slots: 1})
	defer s.Close()
	c := newCollect(1)
	start := func() (*sim.Machine, error) {
		m := sim.New(d, sim.Options{StallLimit: 200})
		dst, err := m.NewBuffer("dst", kir.I32, 8)
		if err != nil {
			return nil, err
		}
		if _, err := m.Launch("k", sim.Args{"dst": dst}); err != nil {
			return nil, err
		}
		return m, nil
	}
	if err := s.Submit(Spec{ID: "hang", Workload: "hang", Start: start, Done: c.cb}); err != nil {
		t.Fatal(err)
	}
	out := c.wait(t)[0]
	if out.State != StateFailed || out.Diagnostic == nil {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Diagnostic.Reason != sim.ReasonStallLimit {
		t.Fatalf("reason = %s", out.Diagnostic.Reason)
	}
}

func TestCycleBudgetExhaustion(t *testing.T) {
	d := hangDesign(t)
	s := New(Config{Slots: 1})
	defer s.Close()
	c := newCollect(1)
	start := func() (*sim.Machine, error) {
		m := sim.New(d, sim.Options{StallLimit: 1 << 40}) // never diagnose: force the budget to fire
		dst, err := m.NewBuffer("dst", kir.I32, 8)
		if err != nil {
			return nil, err
		}
		if _, err := m.Launch("k", sim.Args{"dst": dst}); err != nil {
			return nil, err
		}
		return m, nil
	}
	spec := Spec{ID: "spin", Workload: "spin", Start: start, Done: c.cb,
		Limits: Limits{CycleBudget: 1_000, Slice: 100}}
	if err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	out := c.wait(t)[0]
	if out.State != StateFailed || out.Diagnostic == nil || out.Diagnostic.Reason != sim.ReasonBudget {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Cycles < 1_000 || out.Cycles > 1_100 {
		t.Fatalf("stopped at cycle %d, budget was 1000", out.Cycles)
	}
	if !strings.Contains(out.Err.Error(), "cycle budget") {
		t.Fatalf("err = %v", out.Err)
	}
}

func TestWallClockWatchdog(t *testing.T) {
	d := hangDesign(t)
	// A fake clock that advances 1s per reading: the 3s watchdog expires
	// after a few slices regardless of real time.
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Second)
		return now
	}
	s := New(Config{Slots: 1, Now: clock, Sleep: func(time.Duration) {}})
	defer s.Close()
	c := newCollect(1)
	start := func() (*sim.Machine, error) {
		m := sim.New(d, sim.Options{StallLimit: 1 << 40})
		dst, err := m.NewBuffer("dst", kir.I32, 8)
		if err != nil {
			return nil, err
		}
		if _, err := m.Launch("k", sim.Args{"dst": dst}); err != nil {
			return nil, err
		}
		return m, nil
	}
	spec := Spec{ID: "slow", Workload: "slow", Start: start, Done: c.cb,
		Limits: Limits{WallClock: 3 * time.Second, Slice: 50, CycleBudget: 1 << 40}}
	if err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	out := c.wait(t)[0]
	if out.State != StateFailed || out.Diagnostic == nil || out.Diagnostic.Reason != sim.ReasonWallClock {
		t.Fatalf("outcome = %+v", out)
	}
	if !strings.Contains(out.Err.Error(), "wall-clock watchdog") {
		t.Fatalf("err = %v", out.Err)
	}
}

func TestStartPanicIsolated(t *testing.T) {
	s := New(Config{Slots: 1})
	defer s.Close()
	c := newCollect(1)
	spec := Spec{ID: "boom", Workload: "boom", Done: c.cb,
		Start: func() (*sim.Machine, error) { panic("compile exploded") }}
	if err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	out := c.wait(t)[0]
	if out.State != StateFailed || out.PanicValue != "compile exploded" {
		t.Fatalf("outcome = %+v", out)
	}
	if s.Stats().Panics != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	// The supervisor survived: a new run still executes.
	c2 := newCollect(1)
	d := quickDesign(t, 8)
	if err := s.Submit(Spec{ID: "after", Workload: "quick", Start: startQuick(t, d, sim.Options{}), Done: c2.cb}); err != nil {
		t.Fatal(err)
	}
	if out := c2.wait(t)[0]; out.State != StateCompleted {
		t.Fatalf("post-panic run = %+v", out)
	}
}

// panicSink detonates mid-run, after `after` events — the shape of a bug in
// a downstream consumer crashing the sim goroutine from inside a tick.
type panicSink struct{ after int }

func (p *panicSink) Event(obs.Event) {
	if p.after--; p.after < 0 {
		panic("sink exploded mid-run")
	}
}
func (p *panicSink) Sample(obs.Sample)    {}
func (p *panicSink) Finalize(int64) error { return nil }

func TestMidRunPanicGetsDiagnostic(t *testing.T) {
	d := quickDesign(t, 32)
	s := New(Config{Slots: 1})
	defer s.Close()
	c := newCollect(1)
	opts := sim.Options{Observe: &obs.Config{Sink: &panicSink{after: 1}}}
	// A short first slice delivers the sink its records while the kernel is
	// still running, so the panic always lands mid-run.
	spec := Spec{ID: "mid", Workload: "mid", Start: startQuick(t, d, opts), Done: c.cb, Limits: Limits{Slice: 16}}
	if err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	out := c.wait(t)[0]
	if out.State != StateFailed || out.PanicValue == nil {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Diagnostic == nil || out.Diagnostic.Reason != sim.ReasonPanic {
		t.Fatalf("diagnostic = %+v", out.Diagnostic)
	}
	// The machine's own wait-for report, not the stand-in safeReport
	// synthesizes when the diagnosis itself panics.
	if d := out.Diagnostic; strings.HasPrefix(d.Blame, "diagnosis unavailable") || len(d.Waits) == 0 {
		t.Fatalf("diagnostic is not the machine's report: blame %q, %d waits", d.Blame, len(d.Waits))
	}
}

// flakySink fails Finalize; its RetryFinalize succeeds after `failures`
// attempts — the transient-IO shape the backoff loop exists for.
type flakySink struct {
	mu       sync.Mutex
	failures int
	attempts int
}

func (f *flakySink) Event(obs.Event)   {}
func (f *flakySink) Sample(obs.Sample) {}
func (f *flakySink) Finalize(int64) error {
	return errors.New("disk momentarily full")
}

func (f *flakySink) RetryFinalize() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts++
	if f.attempts <= f.failures {
		return fmt.Errorf("still failing (attempt %d)", f.attempts)
	}
	return nil
}

func TestFinalizeRetryBackoff(t *testing.T) {
	d := quickDesign(t, 8)
	var slept []time.Duration
	var mu sync.Mutex
	s := New(Config{
		Slots: 1,
		Retry: Backoff{Base: 1000, Max: 8000, Seed: 7},
		Sleep: func(d time.Duration) { mu.Lock(); slept = append(slept, d); mu.Unlock() },
	})
	defer s.Close()
	fs := &flakySink{failures: 2}
	c := newCollect(1)
	opts := sim.Options{Observe: &obs.Config{Sink: fs}}
	spec := Spec{ID: "flaky", Workload: "flaky", Start: startQuick(t, d, opts), Done: c.cb,
		FinalizeRetry: fs.RetryFinalize}
	if err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	out := c.wait(t)[0]
	if out.State != StateCompleted {
		t.Fatalf("outcome = %+v", out)
	}
	if out.SinkRetries != 3 {
		t.Fatalf("retries = %d, want 3 (2 failures + 1 success)", out.SinkRetries)
	}
	// The sleeps follow the seeded schedule exactly.
	want := Backoff{Base: 1000, Max: 8000, Seed: 7}.Schedule(4)
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 3 {
		t.Fatalf("slept %d times: %v", len(slept), slept)
	}
	for i, d := range slept {
		if int64(d) != want[i] {
			t.Fatalf("sleep %d = %d, want %d", i, d, want[i])
		}
	}
}

func TestFinalizeRetryExhaustionFailsRun(t *testing.T) {
	d := quickDesign(t, 8)
	s := New(Config{Slots: 1, Retry: Backoff{Base: 1}, RetryAttempts: 2, Sleep: func(time.Duration) {}})
	defer s.Close()
	fs := &flakySink{failures: 1 << 30}
	c := newCollect(1)
	opts := sim.Options{Observe: &obs.Config{Sink: fs}}
	spec := Spec{ID: "doomed", Workload: "doomed", Start: startQuick(t, d, opts), Done: c.cb,
		FinalizeRetry: fs.RetryFinalize}
	if err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	out := c.wait(t)[0]
	if out.State != StateFailed || out.SinkRetries != 2 {
		t.Fatalf("outcome = %+v", out)
	}
	if !strings.Contains(out.Err.Error(), "observe sink failed") {
		t.Fatalf("err = %v", out.Err)
	}
}

func TestAdmissionSheds(t *testing.T) {
	d := quickDesign(t, 8)
	s := New(Config{Slots: 1, Queue: 1})
	defer s.Close()
	release := make(chan struct{})
	c := newCollect(2)
	blocking := Spec{ID: "b", Workload: "w", Done: c.cb, Start: func() (*sim.Machine, error) {
		<-release
		return startQuick(t, d, sim.Options{})()
	}}
	if err := s.Submit(blocking); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has picked it up so the queue slot is free.
	for i := 0; ; i++ {
		if s.Stats().Running == 1 {
			break
		}
		if i > 500 {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued := Spec{ID: "q", Workload: "w", Done: c.cb, Start: startQuick(t, d, sim.Options{})}
	if err := s.Submit(queued); err != nil {
		t.Fatal(err)
	}
	if !s.Saturated() {
		t.Fatal("queue should be full")
	}
	err := s.Submit(Spec{ID: "shed", Workload: "w", Start: startQuick(t, d, sim.Options{})})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v", err)
	}
	if s.Stats().Shed != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	close(release)
	for _, out := range c.wait(t) {
		if out.State != StateCompleted {
			t.Fatalf("outcome = %+v", out)
		}
	}
}

func TestCircuitBreakerQuarantinesAndRecovers(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	s := New(Config{Slots: 1, Breaker: BreakerConfig{Threshold: 2, Cooldown: 10 * time.Second}, Now: clock})
	defer s.Close()

	fail := func(id string) Spec {
		c := newCollect(1)
		return Spec{ID: id, Workload: "bad", Done: c.cb,
			Start: func() (*sim.Machine, error) { return nil, errors.New("no bitstream") }}
	}
	run := func(spec Spec) Outcome {
		c := newCollect(1)
		spec.Done = c.cb
		if err := s.Submit(spec); err != nil {
			t.Fatalf("submit %s: %v", spec.ID, err)
		}
		return c.wait(t)[0]
	}

	// Two consecutive failures trip the breaker.
	run(fail("f1"))
	run(fail("f2"))
	err := s.Submit(Spec{ID: "f3", Workload: "bad",
		Start: func() (*sim.Machine, error) { return nil, errors.New("x") }})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v", err)
	}
	if s.Stats().Quarantined != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	// Other workloads are unaffected.
	d := quickDesign(t, 8)
	if out := run(Spec{ID: "ok", Workload: "good", Start: startQuick(t, d, sim.Options{})}); out.State != StateCompleted {
		t.Fatalf("good workload = %+v", out)
	}
	// After the cooldown, one half-open probe is admitted; success closes
	// the breaker for everyone.
	advance(11 * time.Second)
	if out := run(Spec{ID: "probe", Workload: "bad", Start: startQuick(t, d, sim.Options{})}); out.State != StateCompleted {
		t.Fatalf("probe = %+v", out)
	}
	if out := run(Spec{ID: "back", Workload: "bad", Start: startQuick(t, d, sim.Options{})}); out.State != StateCompleted {
		t.Fatalf("post-recovery = %+v", out)
	}
}

func TestQuarantinedOutcomeDelivered(t *testing.T) {
	s := New(Config{Slots: 1, Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Hour}})
	defer s.Close()
	c := newCollect(1)
	spec := Spec{ID: "f", Workload: "w", Done: c.cb,
		Start: func() (*sim.Machine, error) { return nil, errors.New("x") }}
	if err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	c.wait(t)
	c2 := newCollect(1)
	err := s.Submit(Spec{ID: "q", Workload: "w", Done: c2.cb,
		Start: func() (*sim.Machine, error) { return nil, errors.New("x") }})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v", err)
	}
	out := c2.wait(t)[0]
	if out.State != StateQuarantined || !errors.Is(out.Err, ErrQuarantined) {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{Slots: 1})
	s.Close()
	if err := s.Submit(Spec{ID: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 100, Max: 800, Seed: 42, Jitter: -1}
	got := b.Schedule(6)
	want := []int64{100, 200, 400, 800, 800, 800}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
	// Jitter is deterministic per seed and bounded by the jitter fraction.
	j1 := Backoff{Base: 100, Max: 800, Seed: 42}.Schedule(6)
	j2 := Backoff{Base: 100, Max: 800, Seed: 42}.Schedule(6)
	j3 := Backoff{Base: 100, Max: 800, Seed: 43}.Schedule(6)
	same := true
	for i := range j1 {
		if j1[i] != j2[i] {
			t.Fatal("same seed produced different schedules")
		}
		if j1[i] != j3[i] {
			same = false
		}
		if j1[i] < want[i] || j1[i] > want[i]+want[i]/10 {
			t.Fatalf("jittered delay %d = %d outside [%d, %d]", i, j1[i], want[i], want[i]+want[i]/10)
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestReplayMatchesSupervisedStream pins slice invariance: a supervised run
// driven in 64-cycle RunFor slices records exactly the stream one unsliced
// Run records, so a repair or resume re-execution needs no knowledge of the
// supervisor's slice schedule.
func TestReplayMatchesSupervisedStream(t *testing.T) {
	d := quickDesign(t, 256)
	lim := Limits{Slice: 64, CycleBudget: 1 << 20}
	opts := func(buf *strings.Builder) sim.Options {
		return sim.Options{
			MemConfig: mem.Config{RowHitLat: 60, RowMissLat: 200},
			Observe:   &obs.Config{SampleEvery: 100, Sink: obs.NewNDJSONSink(buf, "quick", 100)},
		}
	}

	var supervised strings.Builder
	s := New(Config{Slots: 1})
	defer s.Close()
	c := newCollect(1)
	if err := s.Submit(Spec{ID: "r", Workload: "quick", Limits: lim,
		Start: startQuick(t, d, opts(&supervised)), Done: c.cb}); err != nil {
		t.Fatal(err)
	}
	if outs := c.wait(t); outs[0].State != StateCompleted {
		t.Fatalf("supervised run: %+v", outs[0])
	}

	var plain strings.Builder
	m, err := startQuick(t, d, opts(&plain))()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Timeline()

	if !strings.Contains(supervised.String(), `"ff-jump"`) {
		t.Fatal("stream recorded no fast-forward jumps; the pin is vacuous")
	}
	if plain.String() != supervised.String() {
		t.Errorf("unsliced Run diverges from the supervised stream: the slice schedule shapes the record")
	}
}
