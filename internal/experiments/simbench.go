package experiments

import (
	"fmt"
	"sync"

	"oclfpga/internal/device"
	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
	"oclfpga/internal/supervise"
	"oclfpga/internal/workload"
)

// The simulator-throughput benchmark workload: a fast producer feeding a slow
// consumer through a shallow channel, deliberately shaped to be stall-heavy —
// the regime the fast-forward path targets:
//
//   - the consumer's table loads stride by a prime larger than a DRAM row, so
//     nearly every access pays the row-activate latency (52 cycles) against a
//     scheduled latency of 7 — each iteration stalls the pipeline for tens of
//     cycles, and a second load addressed by the first's result serializes two
//     such windows back to back;
//   - the throttled consumer backs the depth-4 pipe up, so the producer
//     blocks on channel writes.
//
// Most cycles therefore have no unit able to make progress, and a cycle
// simulator that only steps can do nothing but spin through them. The design
// is uninstrumented on purpose, so it prices the plain quiescent-window skip
// alone; the idle-fixpoint rule that lets monitored designs skip too is
// priced by BenchmarkInstrumentedFF on the stall-monitor matmul.

// SimBenchResult is one simulated run of the benchmark workload.
type SimBenchResult struct {
	N          int   // items streamed producer -> consumer
	Cycles     int64 // final machine cycle
	FFJumps    int64 // fast-forward jumps taken
	FFSkipped  int64 // cycles elided by those jumps
	ObsEvents  int   // timeline events recorded (observed runs only)
	ObsSamples int   // metrics samples recorded (observed runs only)
}

// simBenchExpected mirrors the consumer in plain Go (all values are small and
// positive, so 32-bit truncation and division round-toward-zero never bite).
func simBenchExpected(n int) []int64 {
	out := make([]int64, n)
	c := int64(0)
	for i := 0; i < n; i++ {
		v := int64(i + 1)
		w := ((c + int64(i)*workload.StallPipeStride) & (workload.StallPipeTblElems - 1)) % 97
		w2 := (((w + int64(i)) * workload.StallPipeStride2) & (workload.StallPipeTblElems - 1)) % 97
		out[i] = (v + w2) / 2
		c = w2
	}
	return out
}

// CompileSimBench compiles the benchmark workload bypassing the design memo —
// the benchmark's compile-phase measurement, kept separate so the simulate
// phases measure pure machine stepping.
func CompileSimBench(n int) (*hls.Design, error) {
	if n == 0 {
		n = 2048
	}
	return hls.Compile(workload.BuildStallPipe("simbench", n), device.StratixV(), hls.Options{})
}

// RunSimBench compiles (memoized) and simulates the benchmark workload,
// validating the consumer's output — the equivalence suite runs it with
// fast-forward on and off and compares every field of the result.
func RunSimBench(n int, disableFF bool) (*SimBenchResult, error) {
	return runSimBench(n, disableFF, nil)
}

// RunSimBenchObserved runs the benchmark workload with the observability
// recorder attached (sampling every sampleEvery cycles) — the workload the
// recorder-overhead benchmark measures against the plain fast path.
func RunSimBenchObserved(n int, sampleEvery int64) (*SimBenchResult, error) {
	return runSimBench(n, false, &obs.Config{SampleEvery: sampleEvery})
}

// RunSimBenchCheckpointed is the checkpoint-overhead benchmark's treatment
// arm: the observed workload with a rewind checkpoint (state hash + FF stats)
// recorded every ckptEvery cycles. Compared against RunSimBenchObserved to
// price the checkpoint grid — the extra fast-forward splits plus the hash.
func RunSimBenchCheckpointed(n int, sampleEvery, ckptEvery int64) (*SimBenchResult, error) {
	return runSimBench(n, false, &obs.Config{SampleEvery: sampleEvery, CheckpointEvery: ckptEvery})
}

// SpillSimBench runs the benchmark workload with a checkpointed, segmented
// spill under dir and finalizes it — the fixture builder for the indexed
// query engine's benchmarks and for CLI round-trip tests.
func SpillSimBench(n int, dir string, sampleEvery, ckptEvery int64, segLines int) (*SimBenchResult, error) {
	return SpillSimBenchFF(n, dir, sampleEvery, ckptEvery, segLines, false)
}

// SpillSimBenchFF is SpillSimBench with the fast-forward arm explicit. The
// run is the "simbench" workload.RunSpec executed into the spill, whose
// manifest records the spec, so a scrubber holding nothing but the spill can
// rebuild the identical run (workload.Rebuild).
func SpillSimBenchFF(n int, dir string, sampleEvery, ckptEvery int64, segLines int, disableFF bool) (*SimBenchResult, error) {
	if n == 0 {
		n = 2048
	}
	spec := workload.RunSpec{Workload: "simbench", N: n, SampleEvery: sampleEvery, CheckpointEvery: ckptEvery, DisableFF: disableFF}
	cfg := spec.SegmentConfig(dir)
	cfg.MaxLines = segLines
	seg, err := obs.NewSegmentSink(cfg)
	if err != nil {
		return nil, err
	}
	r, err := spec.Execute(seg)
	if err != nil {
		return nil, err
	}
	return finishSimBench(r.M, r.M.Buffer("dst"), n)
}

func runSimBench(n int, disableFF bool, observe *obs.Config) (*SimBenchResult, error) {
	if n == 0 {
		n = 2048
	}
	m, dst, err := setupSimBench(n, disableFF, observe)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	res, err := finishSimBench(m, dst, n)
	if err == nil && observe != nil && !obsHookArmed() {
		// Steady-state observed mode: counts are harvested, nothing else will
		// read this run's record, so hand its flat storage back to the pools
		// for the next run — the benchmark prices recording plus recycling,
		// exactly the leave-it-on loop a long-lived monitor runs. Skipped when
		// the test hook is armed because the equivalence suite inspects the
		// collected machines afterwards.
		m.ReleaseObserver()
	}
	return res, err
}

// benchSupervisor is the long-lived supervisor behind RunSimBenchSupervised,
// mirroring a real deployment (oclmon keeps one for the process lifetime):
// the overhead benchmark prices supervising a run, not constructing the
// supervisor and its worker pool every time.
var (
	benchSupervisor     *supervise.Supervisor
	benchSupervisorOnce sync.Once
)

// RunSimBenchSupervised runs the same workload, same validation, but drives
// the machine through internal/supervise — sliced RunFor calls under a cycle
// budget and wall-clock watchdog instead of one uninterrupted Run. The
// supervise-overhead benchmark compares it against RunSimBench to price the
// supervision layer (budget accounting + watchdog checks per slice).
func RunSimBenchSupervised(n int) (*SimBenchResult, error) {
	if n == 0 {
		n = 2048
	}
	var (
		m   *sim.Machine
		dst *mem.Buffer
	)
	benchSupervisorOnce.Do(func() {
		benchSupervisor = supervise.New(supervise.Config{Slots: 1})
	})
	sup := benchSupervisor
	done := make(chan supervise.Outcome, 1)
	err := sup.Submit(supervise.Spec{
		ID: "simbench", Workload: "simbench",
		Start: func() (*sim.Machine, error) {
			var err error
			m, dst, err = setupSimBench(n, false, nil)
			return m, err
		},
		Done: func(_ *sim.Machine, out supervise.Outcome) { done <- out },
	})
	if err != nil {
		return nil, err
	}
	out := <-done
	if out.State != supervise.StateCompleted {
		return nil, fmt.Errorf("simbench: supervised run %s: %w", out.State, out.Err)
	}
	return finishSimBench(m, dst, n)
}

// setupSimBench compiles (memoized) the benchmark workload and stages a
// machine ready to run: congested DRAM, buffers filled, kernels launched.
func setupSimBench(n int, disableFF bool, observe *obs.Config) (*sim.Machine, *mem.Buffer, error) {
	d, _, err := compiledDesign(fmt.Sprintf("simbench/%d", n), device.StratixV(), hls.Options{},
		func() (*kir.Program, any, error) { return workload.BuildStallPipe("simbench", n), nil, nil })
	if err != nil {
		return nil, nil, err
	}
	m := newSim(d, sim.Options{
		DisableFastForward: disableFF,
		MemConfig:          workload.StallPipeMem,
		Observe:            observe,
	})
	if _, err := workload.StageStallPipe(m, n); err != nil {
		return nil, nil, err
	}
	return m, m.Buffer("dst"), nil
}

// finishSimBench validates the consumer's output and packages the result.
func finishSimBench(m *sim.Machine, dst *mem.Buffer, n int) (*SimBenchResult, error) {
	want := simBenchExpected(n)
	for i := 0; i < n; i++ {
		if dst.Data[i] != want[i] {
			return nil, fmt.Errorf("simbench: dst[%d] = %d, want %d", i, dst.Data[i], want[i])
		}
	}
	ff := m.FastForwardStats()
	res := &SimBenchResult{N: n, Cycles: m.Cycle(), FFJumps: ff.Jumps, FFSkipped: ff.Skipped}
	if m.Observed() {
		// The flat read path: event/sample counts come straight off the
		// recorder, so finishing an observed run does not materialize the
		// full Event timeline (that conversion happens only when a consumer
		// actually asks for Timeline()).
		rec := m.Observer()
		res.ObsEvents = rec.EventCount()
		res.ObsSamples = rec.SampleCount()
	}
	return res, nil
}
