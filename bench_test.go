// Benchmarks regenerating every table and figure in the paper's evaluation
// (one benchmark per artifact; DESIGN.md §4 maps ids to paper artifacts).
// Custom metrics carry the reproduced numbers so `go test -bench` output
// doubles as the paper-vs-measured record:
//
//	go test -bench=. -benchmem
package oclfpga_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"oclfpga"
	"oclfpga/internal/device"
	"oclfpga/internal/experiments"
	"oclfpga/internal/kir"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/analyze"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
)

// once-per-process table printing so -bench output includes each artifact.
var printed sync.Map

func logOnce(b *testing.B, key, table string) {
	if _, dup := printed.LoadOrStore(key, true); !dup {
		b.Log("\n" + table)
	}
}

// BenchmarkE1TimestampOverhead regenerates §3.1: pointer-chase Fmax and
// logic overhead for the OpenCL-counter and HDL-counter timestamp patterns
// (paper: 233.3 / 227.8 / ~231 MHz; 1.3% vs 1.1% logic).
func BenchmarkE1TimestampOverhead(b *testing.B) {
	var last *experiments.E1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E1TimestampOverhead(device.StratixV(), 1000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	logOnce(b, "e1", last.Table())
	b.ReportMetric(last.Rows[0].FmaxMHz, "base-MHz")
	b.ReportMetric(last.Rows[1].FmaxMHz, "opencl-ctr-MHz")
	b.ReportMetric(last.Rows[2].FmaxMHz, "hdl-ctr-MHz")
	b.ReportMetric(last.Rows[1].LogicOvhPct, "opencl-ovh-%")
	b.ReportMetric(last.Rows[2].LogicOvhPct, "hdl-ovh-%")
}

// BenchmarkE2ExecutionOrderSingleTask regenerates Figure 2(a).
func BenchmarkE2ExecutionOrderSingleTask(b *testing.B) {
	var last *experiments.E2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E2ExecutionOrder(kir.SingleTask)
		if err != nil {
			b.Fatal(err)
		}
		if !r.SingleTaskOrder() || !r.Correct {
			b.Fatal("single-task order property violated")
		}
		last = r
	}
	logOnce(b, "e2a", last.Table())
	b.ReportMetric(float64(last.TotalCycle), "cycles")
}

// BenchmarkE2ExecutionOrderNDRange regenerates Figure 2(b).
func BenchmarkE2ExecutionOrderNDRange(b *testing.B) {
	var last *experiments.E2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E2ExecutionOrder(kir.NDRange)
		if err != nil {
			b.Fatal(err)
		}
		if !r.NDRangeOrder() || !r.Correct {
			b.Fatal("NDRange order property violated")
		}
		last = r
	}
	logOnce(b, "e2b", last.Table())
	b.ReportMetric(float64(last.TotalCycle), "cycles")
}

// BenchmarkE3Table1 regenerates Table 1 (Base / SM / WP / SM+WP fit results;
// paper: −20.5% Fmax with SM, SM logic slightly below base).
func BenchmarkE3Table1(b *testing.B) {
	var last *experiments.E3Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E3Table1(device.StratixV(), 32)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	logOnce(b, "e3", last.Table())
	b.ReportMetric(last.Rows[0].FmaxMHz, "base-MHz")
	b.ReportMetric(last.Rows[1].FmaxMHz, "SM-MHz")
	b.ReportMetric((1-last.Rows[1].FmaxMHz/last.Rows[0].FmaxMHz)*100, "SM-drop-%")
	b.ReportMetric(float64(last.Rows[1].MemBits-last.Rows[0].MemBits), "SM-added-bits")
}

// BenchmarkE4StallMonitor regenerates the §5.1 load-latency profile.
func BenchmarkE4StallMonitor(b *testing.B) {
	var last *experiments.E4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E4StallMonitor(12, 256)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Correct {
			b.Fatal("instrumented matmul computed a wrong product")
		}
		last = r
	}
	logOnce(b, "e4", last.Table())
	b.ReportMetric(last.Stats.Mean, "mean-load-lat")
	b.ReportMetric(float64(last.Stats.StallEvents), "stall-events")
}

// BenchmarkInstrumentedFF prices the idle-fixpoint rule (DESIGN.md §8) on
// the §5.1 stall-monitor matmul, whose two ibuffers poll every cycle. Each op
// runs the experiment with fast-forward on and forced off, back to back in
// alternating order so host drift cancels, and reports the median per-op
// time ratio as speedup-x; benchjson surfaces the median over counts as
// instrumented-ff-speedup-x.
func BenchmarkInstrumentedFF(b *testing.B) {
	run := func(disableFF bool) time.Duration {
		oclfpga.SetFastForwardDisabled(disableFF)
		defer oclfpga.SetFastForwardDisabled(false)
		t0 := time.Now()
		if _, err := experiments.E4StallMonitor(12, 256); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	run(false) // warm the design memo outside the timed region
	b.ResetTimer()
	ratios := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		var fast, step time.Duration
		if i%2 == 0 {
			fast, step = run(false), run(true)
		} else {
			step, fast = run(true), run(false)
		}
		ratios = append(ratios, step.Seconds()/fast.Seconds())
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "speedup-x")
}

// BenchmarkE5Watchpoints regenerates the §5.2 smart-watchpoint event tables.
func BenchmarkE5Watchpoints(b *testing.B) {
	var last *experiments.E5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E5Watchpoints(64)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	logOnce(b, "e5", last.Table())
	b.ReportMetric(float64(len(last.WatchEvents)), "watch-hits")
	b.ReportMetric(float64(len(last.BoundEvents)), "bound-violations")
	b.ReportMetric(float64(len(last.InvarEvents)), "invariance-events")
}

// BenchmarkE6TimestampPitfalls regenerates the §3.1 hazard demonstrations.
func BenchmarkE6TimestampPitfalls(b *testing.B) {
	var last *experiments.E6Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E6TimestampPitfalls()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	logOnce(b, "e6", last.Table())
	b.ReportMetric(float64(last.FreshLatency), "fresh-cycles")
	b.ReportMetric(float64(last.StaleLatency), "stale-cycles")
	b.ReportMetric(float64(last.PinnedLatency), "pinned-cycles")
}

// BenchmarkE7StallFree regenerates the §4 stall-free verification.
func BenchmarkE7StallFree(b *testing.B) {
	var last *experiments.E7Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E7StallFree(512)
		if err != nil {
			b.Fatal(err)
		}
		if r.Captured != r.Samples {
			b.Fatalf("data loss: %d/%d", r.Captured, r.Samples)
		}
		last = r
	}
	logOnce(b, "e7", last.Table())
	b.ReportMetric(float64(last.ProfiledCycles-last.BaseCycles), "perturbation-cycles")
	b.ReportMetric(float64(last.GlobalStoreCycles-last.BaseCycles), "globalstore-perturbation")
}

// BenchmarkE8CrossDevice regenerates the §2 cross-platform sweep.
func BenchmarkE8CrossDevice(b *testing.B) {
	var last *experiments.E8Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E8CrossDevice()
		if err != nil {
			b.Fatal(err)
		}
		if !r.Trends() {
			b.Fatal("cross-device trends diverge from the paper")
		}
		last = r
	}
	logOnce(b, "e8", last.Table())
	b.ReportMetric(last.Rows[0].SMDropPct, "s5-SM-drop-%")
	b.ReportMetric(last.Rows[1].SMDropPct, "a10-SM-drop-%")
}

// BenchmarkE9ChannelStall regenerates the supplementary §5.1
// producer/consumer channel-throughput analysis.
func BenchmarkE9ChannelStall(b *testing.B) {
	var last *experiments.E9Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E9ChannelStall(256)
		if err != nil {
			b.Fatal(err)
		}
		if !r.BottleneckCaught {
			b.Fatal("bottleneck not attributed")
		}
		last = r
	}
	logOnce(b, "e9", last.Table())
	b.ReportMetric(float64(last.GapStats.P50), "median-gap-cycles")
	b.ReportMetric(float64(last.ChannelStalls), "channel-stalls")
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationIBufferImpl compares the OpenCL-coded ibuffer against an
// interface-compatible HDL block: the logic cost of the paper's
// "entirely in OpenCL" portability.
func BenchmarkAblationIBufferImpl(b *testing.B) {
	area := func(hdl bool) float64 {
		p := oclfpga.NewProgram("ablation")
		var err error
		if hdl {
			_, err = oclfpga.BuildHDLIBuffer(p, oclfpga.IBufferConfig{Depth: 1024})
		} else {
			_, err = oclfpga.BuildIBuffer(p, oclfpga.IBufferConfig{Depth: 1024})
		}
		if err != nil {
			b.Fatal(err)
		}
		d, err := oclfpga.Compile(p, oclfpga.StratixV(), oclfpga.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return float64(d.Area.ALUTs)
	}
	var op, hd float64
	for i := 0; i < b.N; i++ {
		op, hd = area(false), area(true)
	}
	b.ReportMetric(op-hd, "opencl-extra-ALUTs")
}

// BenchmarkAblationLSUKinds quantifies the burst-coalescing LSU's win on the
// sequential matvec access pattern by timing the two kernel flavours whose
// dynamic patterns differ (Figure 2's performance observation).
func BenchmarkAblationLSUKinds(b *testing.B) {
	run := func(mode kir.Mode) int64 {
		r, err := experiments.E2ExecutionOrder(mode)
		if err != nil {
			b.Fatal(err)
		}
		return r.TotalCycle
	}
	var st, nd int64
	for i := 0; i < b.N; i++ {
		st, nd = run(kir.SingleTask), run(kir.NDRange)
	}
	b.ReportMetric(float64(nd)/float64(st), "ndrange-slowdown-x")
}

// BenchmarkSimThroughput measures raw simulator speed — simulated cycles per
// wall second — on the stall-heavy producer/consumer workload (DESIGN.md §8).
// Compilation is benchmarked separately so the simulate phases time pure
// machine stepping; Simulate runs with fast-forward (the default), and
// SimulateSlowPath forces every cycle to be stepped. The ratio of their
// simcycles/s metrics is the fast-forward speedup.
func BenchmarkSimThroughput(b *testing.B) {
	const n = 4096
	const ckptGrid = 65536 // rewind-checkpoint interval for SimulateCheckpointed
	b.Run("Compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.CompileSimBench(n); err != nil {
				b.Fatal(err)
			}
		}
	})
	simulate := func(b *testing.B, disableFF bool) {
		if _, err := experiments.RunSimBench(n, disableFF); err != nil {
			b.Fatal(err) // warm the design memo outside the timed region
		}
		b.ReportAllocs()
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			r, err := experiments.RunSimBench(n, disableFF)
			if err != nil {
				b.Fatal(err)
			}
			cycles += r.Cycles
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(cycles)/s, "simcycles/s")
		}
	}
	b.Run("Simulate", func(b *testing.B) { simulate(b, false) })
	b.Run("SimulateSlowPath", func(b *testing.B) { simulate(b, true) })
	// SimulateSupervised drives the same workload through internal/supervise
	// (sliced RunFor under budget + watchdog accounting) instead of one
	// uninterrupted Run. The gap between its simcycles/s and Simulate's is
	// the supervision overhead; benchjson derives it as
	// supervise-overhead-pct, gated at <= 2%.
	b.Run("SimulateSupervised", func(b *testing.B) {
		if _, err := experiments.RunSimBenchSupervised(n); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			r, err := experiments.RunSimBenchSupervised(n)
			if err != nil {
				b.Fatal(err)
			}
			cycles += r.Cycles
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(cycles)/s, "simcycles/s")
		}
	})
	// SimulateObserved runs the same workload with the observability recorder
	// attached (timeline + metrics every 1024 cycles). The gap between its
	// simcycles/s and Simulate's is the recorder overhead; benchjson derives
	// it as observe-overhead-pct, gated at <= 10%. Allocation stats are always
	// reported: benchjson derives obs-B-per-simcycle (recording cost in bytes
	// per simulated cycle, net of the plain run) and the extra allocs/op from
	// them. Fast-forward stays enabled — the recorder is event-driven, not a
	// cycle hook — and each run releases its record storage back to the pools,
	// so the numbers price the steady-state leave-it-on loop.
	b.Run("SimulateObserved", func(b *testing.B) {
		if _, err := experiments.RunSimBenchObserved(n, 1024); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			r, err := experiments.RunSimBenchObserved(n, 1024)
			if err != nil {
				b.Fatal(err)
			}
			if r.ObsEvents == 0 || r.FFJumps == 0 {
				b.Fatal("recorder inactive or fast-forward lost")
			}
			cycles += r.Cycles
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(cycles)/s, "simcycles/s")
		}
	})
	// SimulateCheckpointed adds the rewind checkpoint grid (state hash every
	// 65536 cycles — ~25 rewind anchors over this workload, so a rewind
	// replays at most ~4% of the run) on top of SimulateObserved's
	// configuration. The overheads under gate here — the checkpoint grid's
	// ~1% and the recorder's ~5% — sit at or below the run-to-run drift
	// between separately-timed benchmarks on a shared host, so each op runs
	// all three arms (plain, observed, checkpointed) back to back in a
	// rotating order (cancelling GC and cache bias) and reports each
	// overhead as the median per-op ratio — paired, adjacent in time,
	// outlier-resistant. benchjson surfaces the medians over counts as
	// checkpoint-overhead-pct (gate <= 2%) and observe-overhead-pct
	// (gate <= 10%).
	b.Run("SimulateCheckpointed", func(b *testing.B) {
		if _, err := experiments.RunSimBenchCheckpointed(n, 1024, ckptGrid); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var cycles int64
		var tCkpt time.Duration
		obsRatios := make([]float64, 0, b.N)
		ckptRatios := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			var tP, tO, tC time.Duration
			arms := [3]func(){
				func() {
					t0 := time.Now()
					if _, err := experiments.RunSimBench(n, false); err != nil {
						b.Fatal(err)
					}
					tP = time.Since(t0)
				},
				func() {
					t0 := time.Now()
					if _, err := experiments.RunSimBenchObserved(n, 1024); err != nil {
						b.Fatal(err)
					}
					tO = time.Since(t0)
				},
				func() {
					t0 := time.Now()
					r, err := experiments.RunSimBenchCheckpointed(n, 1024, ckptGrid)
					if err != nil {
						b.Fatal(err)
					}
					tC = time.Since(t0)
					if r.ObsEvents == 0 || r.FFJumps == 0 {
						b.Fatal("recorder inactive or fast-forward lost")
					}
					cycles += r.Cycles
				},
			}
			for k := 0; k < 3; k++ {
				arms[(i+k)%3]()
			}
			tCkpt += tC
			obsRatios = append(obsRatios, tO.Seconds()/tP.Seconds())
			ckptRatios = append(ckptRatios, tC.Seconds()/tO.Seconds())
		}
		if s := tCkpt.Seconds(); s > 0 {
			b.ReportMetric(float64(cycles)/s, "simcycles/s")
		}
		sort.Float64s(obsRatios)
		sort.Float64s(ckptRatios)
		b.ReportMetric((obsRatios[len(obsRatios)/2]-1)*100, "obs-overhead-pct")
		b.ReportMetric((ckptRatios[len(ckptRatios)/2]-1)*100, "overhead-pct")
	})
	// SimulateSpilled is SimulateCheckpointed's configuration (metrics every
	// 1024 cycles, checkpoints on the same grid) streamed into a durable
	// segmented spill at the shipped rotation defaults: recorder, sink flush,
	// container encoding and file I/O, the path a profiling run with -spill-dir
	// takes. Each op spills into a fresh directory; removing the previous
	// op's spill is untimed.
	b.Run("SimulateSpilled", func(b *testing.B) {
		dir := filepath.Join(b.TempDir(), "spill")
		spill := func() *experiments.SimBenchResult {
			r, err := experiments.SpillSimBench(n, dir, 1024, ckptGrid, 0)
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
		spill() // warm the design memo outside the timed region
		b.ReportAllocs()
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			r := spill()
			if r.ObsEvents == 0 || r.FFJumps == 0 {
				b.Fatal("recorder inactive or fast-forward lost")
			}
			cycles += r.Cycles
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(cycles)/s, "simcycles/s")
		}
	})
}

// BenchmarkSpillLoad prices the read path's end-to-end integrity checking
// (DESIGN.md §16): loading a sealed segmented spill with every segment's
// whole-file CRC32C verified against the manifest, versus the same load with
// that checksum skipped (each container section's own checksum runs in both
// arms). Both arms run back to back within each op in alternating order so
// host drift cancels, and the per-op ratio's median is reported as
// verify-overhead-pct; benchjson surfaces the median over counts as
// scrub-verify-overhead-pct, gated at <= 2%.
func BenchmarkSpillLoad(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "spill")
	if _, err := experiments.SpillSimBench(4096, dir, 1024, 4096, 256); err != nil {
		b.Fatal(err)
	}
	if _, err := obs.LoadSegments(dir); err != nil {
		b.Fatal(err) // warm the page cache outside the timed region
	}
	b.ResetTimer()
	ratios := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		var tV, tS time.Duration
		arms := [2]func(){
			func() {
				t0 := time.Now()
				if _, err := obs.LoadSegments(dir); err != nil {
					b.Fatal(err)
				}
				tV = time.Since(t0)
			},
			func() {
				t0 := time.Now()
				if _, err := obs.LoadSegmentsWith(dir, obs.LoadOptions{SkipChecksums: true}); err != nil {
					b.Fatal(err)
				}
				tS = time.Since(t0)
			},
		}
		for k := 0; k < 2; k++ {
			arms[(i+k)%2]()
		}
		ratios = append(ratios, tV.Seconds()/tS.Seconds())
	}
	sort.Float64s(ratios)
	b.ReportMetric((ratios[len(ratios)/2]-1)*100, "verify-overhead-pct")
}

// BenchmarkQuerySpill prices the indexed query engine (DESIGN.md §14) against
// a full scan of the same spill: one checkpointed, segmented spill of the
// stall-heavy workload, then a narrow query (one kind, the last tenth of the
// run's cycles) answered via the per-segment container indexes versus
// decoding every segment's container whole — the same reader with no
// pruning, so the ratio prices the index alone. benchjson derives
// FullScan/Indexed ns/op as query-speedup-x, gated at >= 10. The segment
// counts are exact, so the benchmark also fails outright when the index
// reads as many segments as the full scan.
func BenchmarkQuerySpill(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "spill")
	res, err := experiments.SpillSimBench(4096, dir, 1024, 4096, 256)
	if err != nil {
		b.Fatal(err)
	}
	q, err := oclfpga.ParseEventQuery(fmt.Sprintf("kind=chan-stall cycles=[%d,%d]", res.Cycles*9/10, res.Cycles))
	if err != nil {
		b.Fatal(err)
	}
	// Answers must agree before either path is worth timing.
	indexed, err := query.Run(dir, q)
	if err != nil {
		b.Fatal(err)
	}
	scanned, err := query.ScanAll(dir, q)
	if err != nil {
		b.Fatal(err)
	}
	if len(indexed.Events) == 0 || len(indexed.Events) != len(scanned.Events) {
		b.Fatalf("indexed query returned %d events, full scan %d", len(indexed.Events), len(scanned.Events))
	}
	b.Logf("query matches %d events; index read %d of %d segments",
		len(indexed.Events), indexed.SegmentsRead, indexed.SegmentsTotal)
	if indexed.SegmentsRead >= scanned.SegmentsRead {
		b.Fatalf("index read %d segments, as many as the full scan's %d: nothing pruned",
			indexed.SegmentsRead, scanned.SegmentsRead)
	}
	b.Run("Indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.Run(dir, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.ScanAll(dir, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiffSpill prices the differential profiler's indexed spill walk
// (DESIGN.md §15) against the naive route: two same-seed checkpointed spills
// of the stall-heavy workload, diffed either by accumulating each spill's
// containers through the segment indexes or by fully replaying both spills
// into timelines and attributing those. Both routes must produce the same
// report before either is timed. benchjson derives FullReplay/Indexed ns/op
// as diff-spill-speedup-x, gated at >= 5.
func BenchmarkDiffSpill(b *testing.B) {
	dirA := filepath.Join(b.TempDir(), "a")
	dirB := filepath.Join(b.TempDir(), "b")
	if _, err := experiments.SpillSimBench(4096, dirA, 1024, 4096, 256); err != nil {
		b.Fatal(err)
	}
	if _, err := experiments.SpillSimBench(4096, dirB, 1024, 4096, 256); err != nil {
		b.Fatal(err)
	}
	th := diff.DefaultThresholds()
	fullReplay := func() *diff.Report {
		attr := func(dir string) *analyze.Attribution {
			slog, err := obs.LoadSegments(dir)
			if err != nil {
				b.Fatal(err)
			}
			tl, _, err := slog.Replay()
			if err != nil {
				b.Fatal(err)
			}
			return analyze.Attribute(tl)
		}
		return diff.Compare(attr(dirA), attr(dirB), nil, nil, th)
	}
	// Answers must agree before either path is worth timing.
	r, sa, sb, err := diff.CompareSpills(dirA, dirB, th)
	if err != nil {
		b.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := diff.WriteReport(&got, r); err != nil {
		b.Fatal(err)
	}
	if err := diff.WriteReport(&want, fullReplay()); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		b.Fatal("indexed spill diff differs from full replay")
	}
	b.Logf("diff read %d of %d / %d of %d segments via index; verdict %s",
		sa.SegmentsRead, sa.SegmentsTotal, sb.SegmentsRead, sb.SegmentsTotal, r.Verdict)
	b.Run("Indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := diff.CompareSpills(dirA, dirB, th); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullReplay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fullReplay()
		}
	})
}
