// Command oclprof compiles and simulates a built-in workload with the
// requested profiling/debugging instrumentation and prints what a developer
// would see: the compiler log, the synthesis fit, and the collected traces.
//
//	go run ./cmd/oclprof -workload matvec-st -device s5
//	go run ./cmd/oclprof -workload matmul -stallmon -trace
//	go run ./cmd/oclprof -workload chase -timestamps hdl
//	go run ./cmd/oclprof -workload chanstall -inject freeze-read:pipe@500 -diagnose
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"oclfpga/internal/hls"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/analyze"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/obs/scrub"
	"oclfpga/internal/sim"
	"oclfpga/internal/trace"
	"oclfpga/internal/workload"
)

var (
	flagWorkload = flag.String("workload", "matvec-st", "matvec-st | matvec-nd | matmul | chase | vecadd | fir | chanstall")
	flagDevice   = flag.String("device", "s5", "s5 | a10 | a10i")
	flagStallMon = flag.Bool("stallmon", false, "attach a stall monitor (matmul)")
	flagWatch    = flag.Bool("watch", false, "attach a smart watchpoint (matmul)")
	flagTS       = flag.String("timestamps", "none", "none | cl | hdl (chase)")
	flagTrace    = flag.Bool("trace", false, "drain and print ibuffer traces after the run")
	flagInstr    = flag.Bool("order", false, "instrument matvec with seq+timestamp capture")
	flagDepthOpt = flag.Bool("chandepthopt", false, "enable the channel-depth optimization pass (§3.1 hazard)")
	flagLog      = flag.Bool("log", true, "print the compiler log")
	flagProfile  = flag.Bool("profile", false, "print board-level channel/memory counters after the run")
	flagVCD      = flag.String("vcd", "", "write a SignalTap-style channel waveform (VCD) to this file")
	flagSched    = flag.Bool("schedule", false, "print the scheduled-datapath report (the vendor report analogue)")
	flagInject   = flag.String("inject", "", "inject faults: comma-separated kind[:target]@cycle[+duration][=value] specs")
	flagDiagnose = flag.Bool("diagnose", false, "on a hang, print the structured deadlock report instead of a bare error")
	flagStall    = flag.Int64("stalllimit", 0, "cycles without progress before diagnosing a hang (0 = default)")
	flagTimeline = flag.String("timeline", "", "write the event timeline (Perfetto/Chrome trace_event JSON) to this file")
	flagMetrics  = flag.String("metrics", "", "write the periodic metrics series (JSON) to this file")
	flagEvery    = flag.Int64("sample-every", 1000, "metrics sampling interval in cycles (with -metrics/-timeline)")
	flagJSON     = flag.Bool("json", false, "emit a machine-readable run report on stdout; human text goes to stderr")
	flagAttr     = flag.String("attr", "", "write the stall attribution & critical-path analysis (JSON) to this file")
	flagFolded   = flag.String("folded", "", "write folded stall stacks (flamegraph.pl input) to this file")
	flagPprof    = flag.String("pprof", "", "write a gzipped pprof stall profile to this file (open with go tool pprof -http)")
	flagSpill    = flag.String("spill", "", "stream observability records to this file as NDJSON while the run executes")
	flagSpillDir = flag.String("spill-dir", "", "stream observability records into crash-safe rotated segments (OBSFLAT3 containers) under this directory")
	flagSegLines = flag.Int("seg-lines", 4096, "segment rotation threshold in payload records (with -spill-dir)")
	flagSegBytes = flag.Int64("seg-bytes", 1<<20, "segment rotation threshold in encoded payload bytes (with -spill-dir)")
	flagAtCycle  = flag.Int64("at-cycle", -1, "re-execute to this cycle and dump the machine state as JSON (with -spill-dir: re-execute the spill's recorded run spec, rewound from its nearest recorded checkpoint, hash-verified)")
	flagBreak    = flag.String("break", "", "halt re-execution on breakpoint/watchpoint specs: cycle=N | chan:NAME.stall>K | chan:NAME.len>K | unit:NAME.state=S (comma-separated)")
	flagQueryStr = flag.String("query", "", "answer an event query from -spill-dir via the segment index: 'track=T name=N kind=K cycles=[a,b]'")
	flagCkptEvry = flag.Int64("checkpoint-every", 0, "emit rewind checkpoints every N cycles into the observability stream (0 = off); with -at-cycle and no -spill-dir, rewind two-phase via this grid")
	flagScrub    = flag.Bool("scrub", false, "scrub -spill-dir: verify every segment fingerprint and self-heal damage, re-executing the run spec the manifest records (any registry workload: oclprof's, oclmon's, simbench) for byte-identical segment repair; exit 1 if damage remains")
	flagDiff     = flag.Bool("diff", false, "compare two stall-attribution JSON files (baseline first): oclprof -diff A.json B.json; exit 3 on a regression")
	flagDiffSpl  = flag.Bool("diff-spill", false, "compare two completed spill directories (baseline first) via the segment indexes: oclprof -diff-spill dirA dirB; exit 3 on a regression")
	flagDiffRel  = flag.Float64("diff-rel", 1, "diff verdict relative threshold in percent (with -diff/-diff-spill)")
	flagDiffAbs  = flag.Int64("diff-abs", 16, "diff verdict absolute threshold in cycles (with -diff/-diff-spill)")
)

// out carries the human-readable narration. With -json it is rerouted to
// stderr so stdout stays a single valid JSON document.
var out io.Writer = os.Stdout

// debugOn reports whether a time-travel debugging mode (-at-cycle / -break)
// intercepts the run.
func debugOn() bool { return *flagAtCycle >= 0 || *flagBreak != "" }

// observeOn reports whether the observability layer should be attached.
// Debug re-execution runs unobserved: an existing -spill-dir is only read
// (for its checkpoints), never resumed or overwritten.
func observeOn() bool {
	if debugOn() {
		return false
	}
	return *flagTimeline != "" || *flagMetrics != "" || *flagAttr != "" ||
		*flagFolded != "" || *flagPprof != "" || *flagSpill != "" || *flagSpillDir != ""
}

// analyzeOn reports whether the run's timeline feeds the analysis engine.
func analyzeOn() bool { return *flagAttr != "" || *flagFolded != "" || *flagPprof != "" }

// spillFile holds the -spill NDJSON destination open across the run; the
// simulator's recorder streams into it, and finishRun closes it.
var spillFile *os.File

// flagSpec is the run the flags describe. -vcd attaches a cycle hook, which
// forces per-cycle stepping, so the spec records fast-forward off.
func flagSpec() workload.RunSpec {
	ts := *flagTS
	if ts == "none" {
		ts = ""
	}
	return workload.RunSpec{
		Workload: *flagWorkload, Device: *flagDevice, Inject: *flagInject,
		SampleEvery: *flagEvery, CheckpointEvery: *flagCkptEvry, StallLimit: *flagStall,
		DepthOpt: *flagDepthOpt, StallMon: *flagStallMon, Watch: *flagWatch, Order: *flagInstr,
		Timestamps: ts, Trace: *flagTrace, DisableFF: *flagVCD != "",
	}
}

// observeConfig is the recorder the output flags ask for, nil when none
// does. The spill sinks record spec, so -scrub can re-execute the run.
func observeConfig(spec workload.RunSpec) *obs.Config {
	if !observeOn() {
		return nil
	}
	var sinks []obs.Sink
	if *flagSpill != "" {
		f, err := os.Create(*flagSpill)
		if err != nil {
			log.Fatal(err)
		}
		spillFile = f
		sinks = append(sinks, obs.NewNDJSONSink(f, spec.Workload, spec.SampleEvery))
	}
	if *flagSpillDir != "" {
		cfg := spec.SegmentConfig(*flagSpillDir)
		cfg.MaxLines, cfg.MaxBytes = *flagSegLines, *flagSegBytes
		seg, err := obs.NewSegmentSink(cfg)
		if err != nil {
			log.Fatal(err)
		}
		sinks = append(sinks, seg)
	}
	var sink obs.Sink
	switch len(sinks) {
	case 1:
		sink = sinks[0]
	case 2:
		sink = obs.NewFanout(sinks...)
	}
	return spec.Observe(sink)
}

// start builds spec — compiled, buffers staged, kernels launched, recording
// into the sinks the flags ask for — and prints the compile report.
func start(spec workload.RunSpec) *workload.Run {
	r, err := spec.Build(observeConfig(spec))
	if err != nil {
		log.Fatal(err)
	}
	printCompile(r.Design)
	return r
}

// printCompile prints the compiler log (with -log), the fit summary, and
// (with -sched) the schedule.
func printCompile(d *hls.Design) {
	if *flagLog {
		fmt.Fprintln(out, "== compiler log ==")
		for _, l := range d.Log {
			fmt.Fprintln(out, "  "+l)
		}
	}
	fmt.Fprintf(out, "== fit: %.1fK ALUTs, %d RAM blocks, %s memory bits, Fmax %.1f MHz ==\n\n",
		d.Area.LogicK(), d.Area.M20Ks, fmtBits(d.Area.MemBits), d.Area.FmaxMHz)
	if *flagSched {
		fmt.Fprintln(out, d.DumpSchedule())
	}
}

// checkRun handles the outcome of Machine.Run: with -diagnose, a deadlock is
// reported as the structured hang diagnosis the paper's debugging flow calls
// for; otherwise any error aborts.
func checkRun(err error) {
	if err == nil {
		return
	}
	var de *sim.DeadlockError
	if *flagDiagnose && errors.As(err, &de) {
		if *flagJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if eerr := enc.Encode(struct {
				Deadlock *sim.DeadlockReport `json:"deadlock"`
			}{de.Report}); eerr != nil {
				log.Fatal(eerr)
			}
		} else {
			fmt.Fprint(out, de.Report.String())
		}
		os.Exit(1)
	}
	log.Fatal(err)
}

// runAtCycle re-executes spec to the target cycle and dumps the machine
// state as the run's single stdout document. With -spill-dir, spec is the
// spill's recorded run and the rewind passes through the nearest recorded
// checkpoint at or before the target, verifying its design and state hashes
// — a mismatch means the re-execution is not the spilled run (different
// code, or a spec that misses something the stream depends on) and is
// fatal. With only -checkpoint-every K, the run is split at the same grid
// cycle unverified. Either way the dump is byte-identical to a plain cycle-0
// re-execution's, and the recorded host phases (pre-run monitor start,
// post-run trace readout) are re-executed where the target lies in them.
func runAtCycle(spec workload.RunSpec) {
	target := *flagAtCycle
	var start int64
	var want *obs.Checkpoint
	if *flagSpillDir != "" {
		cks, err := query.Checkpoints(*flagSpillDir)
		if err != nil {
			log.Fatal(err)
		}
		for i := range cks {
			if cks[i].Cycle <= target && (want == nil || cks[i].Cycle > want.Cycle) {
				want = &cks[i]
			}
		}
		if want != nil {
			start = want.Cycle
		}
	} else if spec.CheckpointEvery > 0 {
		start = target / spec.CheckpointEvery * spec.CheckpointEvery
	}
	cycles := []int64{target}
	if start > 0 {
		cycles = append(cycles, start)
	}
	var state *sim.MachineState
	err := spec.Inspect(cycles, func(m *sim.Machine, c int64) error {
		if c == start && start > 0 {
			if want == nil {
				fmt.Fprintf(os.Stderr, "rewind: two-phase via checkpoint grid cycle %d (no spill; unverified)\n", start)
			} else if got := m.DesignHash(); got != want.DesignHash {
				return fmt.Errorf("divergent re-execution: design hash %016x, checkpoint recorded %016x (different design?)",
					got, want.DesignHash)
			} else if got := m.StateHash(); got != want.StateHash {
				return fmt.Errorf("divergent re-execution: state hash %016x at cycle %d, checkpoint recorded %016x (different arguments or fault plan?)",
					got, start, want.StateHash)
			} else {
				fmt.Fprintf(os.Stderr, "rewind: checkpoint at cycle %d verified; fast-forwarding %d cycles to target\n",
					start, target-start)
			}
		}
		if c == target {
			state = m.StateDump()
		}
		return nil
	})
	checkRun(err)
	if state == nil {
		log.Fatalf("re-execution never reached cycle %d", target)
	}
	buf, err := json.MarshalIndent(state, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(append(buf, '\n'))
}

// breakReport is -break's stdout document: the specs, the first hit (null
// when the run completed without one), and the machine state at the halt.
type breakReport struct {
	Workload string            `json:"workload"`
	Specs    []string          `json:"specs"`
	Hit      *sim.BreakHit     `json:"hit"`
	State    *sim.MachineState `json:"state"`
}

// runBreak re-executes spec's recorded phases — pre-run host commands, drive,
// post-run readout — under the -break specs and reports the first hit with
// the machine state frozen at the halt cycle.
func runBreak(spec workload.RunSpec) {
	r, hit, err := spec.Halt(breakSpecs, nil)
	if r == nil {
		log.Fatal(err)
	}
	printCompile(r.Design)
	checkRun(err)
	m := r.M
	rep := breakReport{Workload: r.Spec.Workload, Specs: make([]string, len(breakSpecs)), Hit: hit, State: m.StateDump()}
	for i, b := range breakSpecs {
		rep.Specs[i] = b.String()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if hit != nil {
		fmt.Fprintf(os.Stderr, "break: %s hit at cycle %d\n", hit.Spec, hit.Cycle)
	} else {
		fmt.Fprintf(os.Stderr, "break: run completed at cycle %d without a hit\n", m.Cycle())
	}
}

// runReport is the machine-readable summary -json prints on stdout.
type runReport struct {
	Workload    string               `json:"workload"`
	Device      string               `json:"device"`
	Cycles      int64                `json:"cycles"`
	Units       []unitReport         `json:"units"`
	Profile     *sim.ProfileReport   `json:"profile,omitempty"`
	FastForward sim.FastForwardStats `json:"fastForward"`
	Timeline    string               `json:"timelineFile,omitempty"`
	Metrics     string               `json:"metricsFile,omitempty"`
	Attr        string               `json:"attrFile,omitempty"`
	Folded      string               `json:"foldedFile,omitempty"`
	Pprof       string               `json:"pprofFile,omitempty"`
	Spill       string               `json:"spillFile,omitempty"`
	SpillDir    string               `json:"spillDir,omitempty"`
	SampleEvery int64                `json:"sampleEvery,omitempty"`
	// Stall summarizes the attribution when the analysis engine ran.
	Stall *stallReport `json:"stall,omitempty"`
}

type stallReport struct {
	TotalStallCycles int64 `json:"totalStallCycles"`
	CriticalCycles   int64 `json:"criticalCycles"`
	Rows             int   `json:"rows"`
}

type unitReport struct {
	Kernel     string `json:"kernel"`
	FinishedAt int64  `json:"finishedAt"`
}

// finishRun is the common epilogue of every workload: run the recorded
// post-run phase if the report did not already, dump the timeline and
// metrics files if requested, and with -json emit the run report on stdout.
func finishRun(r *workload.Run) {
	checkRun(r.PostRun())
	m, units := r.M, r.Units
	if *flagTimeline != "" {
		writeJSONFile(*flagTimeline, func(w io.Writer) error {
			return obs.WriteTimeline(w, m.Timeline())
		})
		fmt.Fprintf(out, "timeline: %s (%d events; open in ui.perfetto.dev)\n",
			*flagTimeline, len(m.Timeline().Events))
	}
	if *flagMetrics != "" {
		writeJSONFile(*flagMetrics, func(w io.Writer) error {
			return obs.WriteSeries(w, m.Series())
		})
		fmt.Fprintf(out, "metrics: %s (%d samples, every %d cycles)\n",
			*flagMetrics, len(m.Samples()), *flagEvery)
	}
	if *flagSpill != "" {
		// Finalizing the recorder flushes the NDJSON terminal line through
		// the sink; Observer does it without materializing a Timeline.
		m.Observer()
		if err := m.ObserveErr(); err != nil {
			log.Fatal(err)
		}
		if err := spillFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "spill: %s (NDJSON event stream; replay with obscheck -spill)\n", *flagSpill)
	}
	if *flagSpillDir != "" {
		// Same finalize path: Observer() commits the segments through the
		// sink; a failed commit (full disk, blocked rename) surfaces here.
		m.Observer()
		if err := m.ObserveErr(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "spill-dir: %s (crash-safe segments; validate with obscheck -spill-dir)\n", *flagSpillDir)
	}
	var attr *analyze.Attribution
	if analyzeOn() {
		// The flat read path: attribute straight off the recorder's
		// fixed-width records instead of materializing the Event timeline.
		attr = analyze.AttributeRecorder(m.Observer())
		if *flagAttr != "" {
			writeJSONFile(*flagAttr, func(w io.Writer) error { return analyze.WriteJSON(w, attr) })
			fmt.Fprintf(out, "attribution: %s (%d rows, critical path %d cycles)\n",
				*flagAttr, len(attr.Rows), attr.CriticalCycles)
		}
		if *flagFolded != "" {
			writeJSONFile(*flagFolded, func(w io.Writer) error { return analyze.WriteFolded(w, attr) })
			fmt.Fprintf(out, "folded stacks: %s\n", *flagFolded)
		}
		if *flagPprof != "" {
			writeJSONFile(*flagPprof, func(w io.Writer) error { return analyze.WritePprof(w, attr) })
			fmt.Fprintf(out, "pprof profile: %s (go tool pprof -http=: %s)\n", *flagPprof, *flagPprof)
		}
	}
	if !*flagJSON {
		return
	}
	rep := runReport{
		Workload:    r.Spec.Workload,
		Device:      *flagDevice,
		Cycles:      m.Cycle(),
		FastForward: m.FastForwardStats(),
		Timeline:    *flagTimeline,
		Metrics:     *flagMetrics,
		Attr:        *flagAttr,
		Folded:      *flagFolded,
		Pprof:       *flagPprof,
		Spill:       *flagSpill,
		SpillDir:    *flagSpillDir,
	}
	if observeOn() {
		rep.SampleEvery = *flagEvery
	}
	if attr != nil {
		rep.Stall = &stallReport{
			TotalStallCycles: attr.TotalStallCycles,
			CriticalCycles:   attr.CriticalCycles,
			Rows:             len(attr.Rows),
		}
	}
	for _, u := range units {
		rep.Units = append(rep.Units, unitReport{Kernel: u.Kernel().UnitName(), FinishedAt: u.FinishedAt()})
	}
	if *flagProfile {
		p := m.Profile(units...)
		rep.Profile = &p
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}

func writeJSONFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// usageExit rejects a mutually-exclusive flag combination: message, usage,
// exit code 2 (the flag-misuse convention).
func usageExit(msg string) {
	fmt.Fprintln(os.Stderr, "oclprof: "+msg)
	flag.Usage()
	os.Exit(2)
}

// breakSpecs is the -break list, parsed before any compilation so a typo
// fails fast.
var breakSpecs []query.Break

// validateModes enforces the debug/compare modes' exclusivity rules.
// -at-cycle, -break, -query, -scrub, -diff, and -diff-spill each own the run
// (and stdout), so they exclude each other and every trace-producing flag;
// -at-cycle keeps -spill-dir as its read-only checkpoint source, -query and
// -scrub require it, and the diff modes take their two inputs as positional
// arguments instead.
func validateModes() {
	modes := 0
	for _, on := range []bool{*flagAtCycle >= 0, *flagBreak != "", *flagQueryStr != "", *flagScrub, *flagDiff, *flagDiffSpl} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		usageExit("-at-cycle, -break, -query, -scrub, -diff, and -diff-spill are mutually exclusive")
	}
	if modes == 0 {
		return
	}
	outputs := []struct {
		set  bool
		name string
	}{
		{*flagTimeline != "", "-timeline"},
		{*flagMetrics != "", "-metrics"},
		{*flagAttr != "", "-attr"},
		{*flagFolded != "", "-folded"},
		{*flagPprof != "", "-pprof"},
		{*flagSpill != "", "-spill"},
		{*flagVCD != "", "-vcd"},
		{*flagJSON, "-json"},
	}
	mode := "-at-cycle"
	switch {
	case *flagBreak != "":
		mode = "-break"
	case *flagQueryStr != "":
		mode = "-query"
	case *flagScrub:
		mode = "-scrub"
	case *flagDiff:
		mode = "-diff"
	case *flagDiffSpl:
		mode = "-diff-spill"
	}
	for _, o := range outputs {
		if o.set {
			usageExit(mode + " cannot be combined with " + o.name)
		}
	}
	if *flagBreak != "" && *flagSpillDir != "" {
		usageExit("-break cannot be combined with -spill-dir (breakpointed re-execution is unobserved)")
	}
	if (*flagDiff || *flagDiffSpl) && *flagSpillDir != "" {
		usageExit(mode + " cannot be combined with -spill-dir (pass the two inputs as arguments, baseline first)")
	}
	if (*flagDiff || *flagDiffSpl) && flag.NArg() != 2 {
		usageExit(mode + " takes exactly two arguments, baseline first")
	}
	if *flagQueryStr != "" && *flagSpillDir == "" {
		usageExit("-query requires -spill-dir (the indexed spill to query)")
	}
	if *flagScrub && *flagSpillDir == "" {
		usageExit("-scrub requires -spill-dir (the spill to verify and heal)")
	}
	if *flagBreak != "" {
		var err error
		if breakSpecs, err = query.ParseBreaks(*flagBreak); err != nil {
			usageExit(err.Error())
		}
	}
}

// runQuery answers -query straight from the spill directory — no device, no
// compilation, no re-execution: the segment index does the work.
func runQuery() {
	q, err := query.ParseQuery(*flagQueryStr)
	if err != nil {
		usageExit(err.Error())
	}
	res, err := query.Run(*flagSpillDir, q)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "query: %d events, read %d of %d segments\n",
		len(res.Events), res.SegmentsRead, res.SegmentsTotal)
}

// runDiff answers -diff/-diff-spill without a device or compilation: the
// report is computed from the two artifacts (attribution files or spill
// directories, baseline first), written to stdout as the single JSON
// document, and the process exits with the verdict's code (0 neutral or
// improved, 3 regressed).
func runDiff() {
	th := diff.Thresholds{RelPct: *flagDiffRel, AbsCycles: *flagDiffAbs}
	if th.RelPct < 0 || th.AbsCycles < 0 {
		usageExit("-diff-rel and -diff-abs must be non-negative")
	}
	argA, argB := flag.Arg(0), flag.Arg(1)
	var r *diff.Report
	if *flagDiffSpl {
		var sa, sb *diff.SpillSide
		var err error
		r, sa, sb, err = diff.CompareSpills(argA, argB, th)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "diff: read %d of %d / %d of %d segments via index\n",
			sa.SegmentsRead, sa.SegmentsTotal, sb.SegmentsRead, sb.SegmentsTotal)
	} else {
		readAttr := func(path string) *analyze.Attribution {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			a, err := analyze.ReadJSON(f)
			if err != nil {
				log.Fatal(err)
			}
			if err := a.Validate(); err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			return a
		}
		r = diff.Compare(readAttr(argA), readAttr(argB), nil, nil, th)
	}
	if err := diff.WriteReport(os.Stdout, r); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "diff: %s (total stall %d -> %d, critical path %d -> %d)\n",
		r.Verdict, r.TotalStallA, r.TotalStallB, r.Critical.CyclesA, r.Critical.CyclesB)
	os.Exit(r.Verdict.ExitCode())
}

func main() {
	flag.Parse()
	validateModes()
	if *flagQueryStr != "" {
		runQuery()
		return
	}
	if *flagScrub {
		runScrub()
		return
	}
	if *flagDiff || *flagDiffSpl {
		runDiff()
		return
	}
	if *flagJSON || debugOn() {
		// keep stdout a single machine-readable document; narration to stderr
		out = os.Stderr
	}
	if *flagAtCycle >= 0 && *flagSpillDir != "" {
		// Rewind the run the spill recorded, whatever the workload flags say.
		man, err := obs.LoadManifest(*flagSpillDir)
		if err != nil {
			log.Fatal(err)
		}
		spec, err := workload.SpecFromManifest(man)
		if err != nil {
			log.Fatal(err)
		}
		runAtCycle(spec)
		return
	}
	report, ok := reports[*flagWorkload]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *flagWorkload)
		flag.Usage()
		os.Exit(2)
	}
	if *flagAtCycle >= 0 {
		runAtCycle(flagSpec())
		return
	}
	if *flagBreak != "" {
		runBreak(flagSpec())
		return
	}
	report(start(flagSpec()))
}

// scrubVerdict is -scrub's stdout document.
type scrubVerdict struct {
	Dir     string        `json:"dir"`
	Scan    *scrub.Report `json:"scan"`
	Repair  *scrub.Result `json:"repair,omitempty"`
	Healthy bool          `json:"healthy"`
}

// runScrub verifies and self-heals -spill-dir: commit debris is removed in
// place, and damaged segments are regenerated byte-identically by re-executing the run spec the
// manifest records. Exit 0 means the directory ends healthy.
func runScrub() {
	dir := *flagSpillDir
	rep, err := scrub.Scan(dir)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range rep.Damage {
		fmt.Fprintf(os.Stderr, "scrub: %s: %s (%s) — repair: %s\n", d.File, d.Kind, d.Detail, d.Repair)
	}
	v := scrubVerdict{Dir: dir, Scan: rep, Healthy: rep.Healthy}
	if !rep.Healthy {
		res, rerr := scrub.Repair(dir, workload.Rebuild)
		v.Repair = res
		var me *workload.MetaError
		if errors.As(rerr, &me) {
			// The manifest records a run no re-execution reproduces: the
			// damage stays unrepairable, so the spill is quarantined.
			if qerr := scrub.Quarantine(dir, rerr.Error(), rep.Damage, time.Now().UTC().Format(time.RFC3339)); qerr != nil {
				fmt.Fprintf(os.Stderr, "scrub: quarantine: %v\n", qerr)
			}
		}
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "scrub: repair: %v\n", rerr)
		} else {
			v.Healthy = res.Healthy
			fmt.Fprintf(os.Stderr, "scrub: %d orphans removed, %d segments re-executed\n",
				len(res.RemovedOrphans), len(res.Repaired))
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&v); err != nil {
		log.Fatal(err)
	}
	verdict := "healthy"
	if !v.Healthy {
		verdict = "UNHEALTHY"
	}
	fmt.Fprintf(os.Stderr, "scrub: %s %s (%d segments)\n", dir, verdict, len(rep.Segments))
	if !v.Healthy {
		os.Exit(1)
	}
}

func fmtBits(b int64) string { return fmt.Sprintf("%.2fM", float64(b)/1e6) }

// reports maps each oclprof workload to its report: drive the built run,
// print what a developer would see, and finish.
var reports = map[string]func(*workload.Run){
	"matvec-st": reportMatVec,
	"matvec-nd": reportMatVec,
	"matmul":    reportMatMul,
	"chase":     reportChase,
	"vecadd":    reportVecAdd,
	"fir":       reportFIR,
	"chanstall": reportChanStall,
}

// printProfile prints the board-level counters with -profile.
func printProfile(r *workload.Run) {
	if *flagProfile {
		fmt.Fprintln(out, r.M.Profile(r.Units...))
	}
}

func reportMatVec(r *workload.Run) {
	m, u := r.M, r.Units[0]
	var vcd *sim.VCDRecorder
	if *flagVCD != "" {
		vcd = m.NewVCD()
	}
	checkRun(r.Drive())
	fmt.Fprintf(out, "%s finished in %d cycles (%.2f us at Fmax)\n",
		u.Kernel().Name, u.FinishedAt(), float64(u.FinishedAt())/r.Design.Area.FmaxMHz)
	printProfile(r)
	if vcd != nil {
		f, err := os.Create(*flagVCD)
		if err != nil {
			log.Fatal(err)
		}
		if err := vcd.Flush(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Fprintf(out, "waveform: %s (%d value changes)\n", *flagVCD, vcd.Changes())
	}
	if r.Spec.Order {
		i1 := m.Buffer("info1")
		i2 := m.Buffer("info2")
		i3 := m.Buffer("info3")
		fmt.Fprintln(out, "\nexecution order capture (first 20 sequence numbers):")
		fmt.Fprintln(out, "  seq  timestamp     k    i")
		for s := 1; s <= 20 && s < len(i1.Data); s++ {
			if i1.Data[s] == 0 {
				break
			}
			fmt.Fprintf(out, "  %3d  %9d  %4d %4d\n", s, i1.Data[s], i2.Data[s], i3.Data[s])
		}
	}
	finishRun(r)
}

func reportMatMul(r *workload.Run) {
	u := r.Units[0]
	checkRun(r.Drive())
	fmt.Fprintf(out, "matmul %dx%d finished in %d cycles\n", r.N, r.N, u.FinishedAt())
	printProfile(r)
	checkRun(r.PostRun())
	if recs := r.Traces["stallmon"]; recs != nil {
		lats := trace.Latencies(trace.Valid(recs[0]), trace.Valid(recs[1]))
		st := trace.Summarize(lats)
		fmt.Fprintf(out, "\nstall monitor: %d samples, load latency min %d / median %d / max %d cycles\n",
			st.N, st.Min, st.P50, st.Max)
		fmt.Fprintln(out, trace.NewHistogram(lats, 8, 10))
	}
	if recs := r.Traces["watch"]; recs != nil {
		evs := trace.DecodeWatch(trace.Valid(recs[0]), 16)
		fmt.Fprintf(out, "\nwatchpoint events at address 0: %d\n", len(evs))
		for i, e := range evs {
			if i >= 10 {
				fmt.Fprintln(out, "  ...")
				break
			}
			fmt.Fprintf(out, "  cycle %d: addr %d value %d\n", e.T, e.Addr, e.Tag)
		}
	}
	finishRun(r)
}

func reportChase(r *workload.Run) {
	u, res := r.Units[0], r.M.Buffer("out")
	checkRun(r.Drive())
	fmt.Fprintf(out, "chase finished in %d cycles; final value %d\n", u.FinishedAt(), res.Data[0])
	printProfile(r)
	if kind, _ := r.Spec.TimestampKind(); kind != workload.NoTimestamp {
		fmt.Fprintf(out, "on-chip measured duration: %d cycles (%s timestamps)\n", res.Data[1], kind)
	}
	finishRun(r)
}

func reportVecAdd(r *workload.Run) {
	checkRun(r.Drive())
	fmt.Fprintf(out, "vecadd over %d work-items in %d cycles; z[10]=%d\n",
		r.N, r.Units[0].FinishedAt(), r.M.Buffer("z").Data[10])
	finishRun(r)
}

func reportFIR(r *workload.Run) {
	checkRun(r.Drive())
	fmt.Fprintf(out, "fir over %d samples in %d cycles; y[8]=%d\n",
		r.N, r.Units[0].FinishedAt(), r.M.Buffer("y").Data[8])
	printProfile(r)
	checkRun(r.PostRun())
	if recs := r.Traces["stallmon"]; recs != nil {
		lats := trace.Latencies(trace.Valid(recs[0]), trace.Valid(recs[1]))
		st := trace.Summarize(lats)
		fmt.Fprintf(out, "sample-load latency: min %d / median %d / max %d over %d samples\n",
			st.Min, st.P50, st.Max, st.N)
	}
	finishRun(r)
}

// reportChanStall reports the §5.1 producer/consumer fault-injection
// playground: with -inject, faults are applied to the live fabric; with
// -diagnose, a resulting hang prints the structured deadlock report instead
// of an opaque error.
//
//	go run ./cmd/oclprof -workload chanstall -inject freeze-read:pipe@500 -diagnose
func reportChanStall(r *workload.Run) {
	pu, cu := r.Units[0], r.Units[1]
	checkRun(r.Drive())
	fmt.Fprintf(out, "producer finished at cycle %d, consumer at cycle %d; dst[%d]=%d\n",
		pu.FinishedAt(), cu.FinishedAt(), r.N-1, r.M.Buffer("dst").Data[r.N-1])
	printProfile(r)
	finishRun(r)
}
