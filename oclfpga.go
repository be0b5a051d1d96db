// Package oclfpga is a library reproduction of "Developing Dynamic Profiling
// and Debugging Support in OpenCL for FPGAs" (Verma et al., DAC 2017).
//
// It provides, entirely in Go with no external dependencies:
//
//   - a kernel IR and builder playing the role of OpenCL kernel source
//     (single-task, NDRange, and autorun kernels, Altera-style channels,
//     HDL library functions);
//   - an offline compiler that pipelines kernels (ASAP scheduling with
//     operation chaining, initiation-interval analysis, LSU selection,
//     channel sizing) and estimates area/Fmax against device profiles of the
//     paper's three platforms;
//   - a cycle-accurate simulator of the synthesized design (lockstep
//     pipeline stalls, channels, autorun kernels, banked DRAM);
//   - the paper's profiling/debugging framework: timestamp and
//     sequence-number primitives (§3), the ibuffer intelligent trace buffer
//     (§4), pipeline stall monitors and smart watchpoints (§5), and the
//     host interface kernel with a host-side controller;
//   - the workloads and experiment harnesses that regenerate every table
//     and figure in the paper's evaluation (see EXPERIMENTS.md).
//
// # Quick start
//
//	p := oclfpga.NewProgram("demo")
//	ib, _ := oclfpga.BuildIBuffer(p, oclfpga.IBufferConfig{Depth: 256})
//	ifc := oclfpga.BuildHostInterface(p, ib)
//	// ... build a kernel with p.AddKernel and instrument it with
//	// oclfpga.TakeSnapshot(...)
//	design, _ := oclfpga.Compile(p, oclfpga.StratixV(), oclfpga.CompileOptions{})
//	m := oclfpga.NewMachine(design, oclfpga.SimOptions{})
//	ctl, _ := oclfpga.NewController(m, ifc)
//	_ = ctl.StartLinear(0)
//	// ... launch kernels with m.Launch, then ctl.ReadTrace(0)
package oclfpga

import (
	"io"

	"oclfpga/internal/core"
	"oclfpga/internal/device"
	"oclfpga/internal/fault"
	"oclfpga/internal/hls"
	"oclfpga/internal/host"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/monitor"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/analyze"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/obs/scrub"
	"oclfpga/internal/primitives"
	"oclfpga/internal/sim"
	"oclfpga/internal/supervise"
	"oclfpga/internal/trace"
)

// Kernel construction (see internal/kir for full documentation).
type (
	// Program is a whole OpenCL-for-FPGA design: kernels, channels, and HDL
	// library functions.
	Program = kir.Program
	// Kernel is one kernel under construction.
	Kernel = kir.Kernel
	// Builder appends operations to a kernel body.
	Builder = kir.Builder
	// Val is an SSA value handle inside one kernel.
	Val = kir.Val
	// Type is a value/channel element type.
	Type = kir.Type
	// Mode is the kernel launch flavour (single-task, NDRange, autorun).
	Mode = kir.Mode
	// Chan is a channel declaration.
	Chan = kir.Chan
	// LibFunc is an HDL library function (e.g. get_time).
	LibFunc = kir.LibFunc
)

// Element types and kernel modes.
const (
	I32 = kir.I32
	I64 = kir.I64
	U16 = kir.U16
	U8  = kir.U8
	B1  = kir.B1

	SingleTask = kir.SingleTask
	NDRange    = kir.NDRange
	Autorun    = kir.Autorun
)

// NewProgram creates an empty design.
func NewProgram(name string) *Program { return kir.NewProgram(name) }

// Compilation.
type (
	// Design is a compiled program: scheduled datapaths, synthesized channel
	// depths, the synthesis report, and the compiler log.
	Design = hls.Design
	// CompileOptions tune the compiler, including the §3.1 channel-depth
	// optimization hazard.
	CompileOptions = hls.Options
	// Device is an FPGA platform profile.
	Device = device.Device
)

// Compile lowers, schedules, and fits a program for a device.
func Compile(p *Program, dev *Device, opts CompileOptions) (*Design, error) {
	return hls.Compile(p, dev, opts)
}

// StratixV returns the paper's discrete Stratix V GX A7 platform profile.
func StratixV() *Device { return device.StratixV() }

// Arria10 returns the discrete Arria 10 GX 1150 platform profile.
func Arria10() *Device { return device.Arria10() }

// Arria10Integrated returns the Broadwell-EP integrated Arria 10 profile.
func Arria10Integrated() *Device { return device.Arria10Integrated() }

// Devices returns all three platforms of the paper's methodology (§2).
func Devices() []*Device { return device.All() }

// Simulation.
type (
	// Machine is a simulated board with a loaded design.
	Machine = sim.Machine
	// SimOptions configure the simulator (memory model, autorun skew).
	SimOptions = sim.Options
	// Args bind kernel arguments at launch.
	Args = sim.Args
	// Buffer is a global-memory allocation.
	Buffer = mem.Buffer
	// LaunchedKernel is a running or finished kernel activation.
	LaunchedKernel = sim.Unit
	// ProfileReport is the board-level counter snapshot (channel stalls,
	// memory-site activity) — the coarse view vendor profiling provides,
	// complementing the ibuffer's per-event traces.
	ProfileReport = sim.ProfileReport
	// VCDRecorder captures a SignalTap-style waveform of channel activity —
	// the logic-analyzer view the paper's framework replaces with
	// software-visible traces.
	VCDRecorder = sim.VCDRecorder
	// FastForwardStats reports how much of a run the event-driven skip
	// covered (Machine.FastForwardStats).
	FastForwardStats = sim.FastForwardStats
)

// Observability (DESIGN.md §9): the structured event timeline and periodic
// metrics sampler attached via SimOptions.Observe. Unlike a VCDRecorder,
// the recorder is event-driven — fast-forward stays enabled and the
// recorded artifacts are byte-identical with it on or off.
type (
	// ObserveConfig enables the observability layer (set SimOptions.Observe).
	ObserveConfig = obs.Config
	// Timeline is the structured event record of a run — unit activations,
	// channel-stall intervals, LSU line fetches, fault windows, deadlock
	// blame — retrieved with Machine.Timeline after the run.
	Timeline = obs.Timeline
	// TimelineEvent is one span or instant on the timeline.
	TimelineEvent = obs.Event
	// MetricsSample is one periodic counter snapshot (channel, LSU, and
	// local-memory activity at a sample cycle).
	MetricsSample = obs.Sample
	// MetricsSeries is the whole sampled run (Machine.Series).
	MetricsSeries = obs.Series
)

// WriteTimeline serializes a timeline as Perfetto/Chrome trace_event JSON —
// the file loads directly in ui.perfetto.dev or chrome://tracing, one track
// per unit, channel, and memory site.
func WriteTimeline(w io.Writer, t *Timeline) error { return obs.WriteTimeline(w, t) }

// ReadTimeline parses a timeline previously written by WriteTimeline.
func ReadTimeline(r io.Reader) (*Timeline, error) { return obs.ReadTimeline(r) }

// WriteMetricsSeries serializes a metrics series as JSON.
func WriteMetricsSeries(w io.Writer, s *MetricsSeries) error { return obs.WriteSeries(w, s) }

// ReadMetricsSeries parses a series previously written by WriteMetricsSeries.
func ReadMetricsSeries(r io.Reader) (*MetricsSeries, error) { return obs.ReadSeries(r) }

// Streaming sinks (DESIGN.md §10): the recorder buffers as before, and an
// ObserveConfig.Sink additionally receives every record in append order while
// the run executes — to an NDJSON spill file, a live server, or both.
type (
	// ObserveSink consumes the event/sample stream live.
	ObserveSink = obs.Sink
	// ObserveFanout tees a stream to several sinks.
	ObserveFanout = obs.Fanout
	// NDJSONSink spills the stream as newline-delimited JSON with bounded
	// memory; ReplayNDJSON rebuilds the exact timeline from the file.
	NDJSONSink = obs.NDJSONSink
)

// NewObserveFanout composes sinks; nils are skipped.
func NewObserveFanout(sinks ...ObserveSink) *ObserveFanout { return obs.NewFanout(sinks...) }

// NewNDJSONSink streams observability records to w as NDJSON, buffered and
// flushed at Finalize, so w may be a plain file.
func NewNDJSONSink(w io.Writer, design string, sampleEvery int64) *NDJSONSink {
	return obs.NewNDJSONSink(w, design, sampleEvery)
}

// ReplayNDJSON replays a spill stream through a fresh buffering recorder and
// returns the timeline and series it reconstructs — byte-identical, once
// serialized, to what the originating machine would have returned. A
// malformed or truncated stream is a *CorruptSegmentError.
func ReplayNDJSON(r io.Reader) (*Timeline, *MetricsSeries, error) { return obs.ReplayNDJSON(r) }

// Crash-safe spill (DESIGN.md §11): the durable form of the record. Records
// rotate through size-bounded segments, each one OBSFLAT3 container file
// committed atomically (temp file + fsync + rename) under a manifest that
// fingerprints it, so a crash at any instant leaves a loadable durable
// prefix; a resume sink re-executes the deterministic run, proves each
// sealed segment against its manifest fingerprint, and appends the
// remainder. NDJSON is the stream form only: NDJSONSink and ReplayNDJSON,
// and obscheck -export renders a spill directory as one NDJSON stream.
type (
	// SegmentConfig configures a segmented spill directory.
	SegmentConfig = obs.SegmentConfig
	// SegmentSink streams records into rotated, atomically-committed
	// segments (NewSegmentSink for fresh runs, NewResumeSink for recovery).
	SegmentSink = obs.SegmentSink
	// SegmentLog is a loaded spill directory: its manifest and every sealed
	// payload record (event or sample), in order.
	SegmentLog = obs.SegmentLog
	// SegmentManifest is the spill directory's source of truth.
	SegmentManifest = obs.Manifest
)

// NewSegmentSink starts a fresh segmented spill under cfg.Dir.
func NewSegmentSink(cfg SegmentConfig) (*SegmentSink, error) { return obs.NewSegmentSink(cfg) }

// NewResumeSink resumes an interrupted spill from its manifest alone: the
// re-executed run's records are cut at the manifest's per-segment record
// counts and each cut must match its sealed segment's length and CRC32C
// before any new segment is written. A mismatch, or a run that ends inside
// the sealed prefix, is a permanent *CorruptSegmentError naming the segment.
func NewResumeSink(cfg SegmentConfig, man *SegmentManifest) (*SegmentSink, error) {
	return obs.NewResumeSink(cfg, man)
}

// LoadSegments loads a spill directory's sealed record (complete or not),
// verifying every sealed segment's length and CRC32C against the manifest; a
// mismatch is a typed *CorruptSegmentError, never a wrong answer. An
// incomplete spill's unsealed .part is not read. A directory written in
// another spill format version (version 1 held NDJSON segments) is refused
// with a *SpillVersionError.
func LoadSegments(dir string) (*SegmentLog, error) { return obs.LoadSegments(dir) }

// Durable spill storage (DESIGN.md §16): end-to-end checksums on the read
// path, a scrubber that classifies disk damage and repairs it — commit
// debris removed, damaged segments regenerated by deterministic
// re-execution byte-identically or not at all — and a quarantine verdict
// for what cannot be healed.
type (
	// CorruptSegmentError is the typed read-path failure for a segment whose
	// bytes disagree with the manifest's recorded length or CRC32C.
	CorruptSegmentError = obs.CorruptSegmentError
	// SpillVersionError refuses a spill directory of another format
	// version.
	SpillVersionError = obs.SpillVersionError
	// ScrubReport is one spill directory's scan verdict: per-segment status,
	// classified damage, warnings, and whether re-execution is needed.
	ScrubReport = scrub.Report
	// ScrubResult is a repair's outcome: what was removed and regenerated,
	// and what damage remains.
	ScrubResult = scrub.Result
	// ScrubRebuild regenerates a spill's record stream by deterministic
	// re-execution. The bundled tools all pass the one shared hook,
	// internal/workload.Rebuild, which re-executes the typed run spec the
	// manifest records (Meta plus SampleEvery) through the workload
	// registry; a spill from a custom writer needs a hook of its own.
	ScrubRebuild = scrub.Rebuild
)

// ScrubScan classifies every artifact in a spill directory without modifying
// anything; obscheck -fsck is its CLI face.
func ScrubScan(dir string) (*ScrubReport, error) { return scrub.Scan(dir) }

// ScrubRepair heals a spill directory: commit debris removed and — when
// rebuild is non-nil — corrupt segments regenerated by re-execution,
// accepted only byte-identical to the manifest's checksums.
func ScrubRepair(dir string, rebuild ScrubRebuild) (*ScrubResult, error) {
	return scrub.Repair(dir, rebuild)
}

// Time-travel debugging (DESIGN.md §14): periodic hash-carrying checkpoints
// in the spill stream, exact state reconstruction at any cycle by
// deterministic re-execution (rewound from the nearest checkpoint),
// breakpointed re-execution, and an indexed query engine that answers event
// queries from a spill directory by decoding only the segments whose
// container index might hold matches.
type (
	// Checkpoint is one rewind anchor recorded in the spill stream when
	// ObserveConfig.CheckpointEvery is set: cycle, design hash, fault seed,
	// and the machine state hash re-execution must reproduce.
	Checkpoint = obs.Checkpoint
	// MachineState is the full architectural state dump at one cycle
	// (Machine.StateDump) — units, channels, LSUs, faults, and the state hash.
	MachineState = sim.MachineState
	// Breakpoint is one parsed breakpoint/watchpoint spec ("cycle=N",
	// "chan:NAME.stall>K", "unit:NAME.state=S", ...).
	Breakpoint = query.Break
	// BreakpointHit reports the first armed spec that fired (the Hit of the
	// *sim.BreakError every drive call returns once the machine halts).
	BreakpointHit = sim.BreakHit
	// EventQuery is one parsed spill query ("track=... kind=... cycles=[a,b]").
	EventQuery = query.Query
	// EventQueryResult is a query's answer: the matching events plus how many
	// segments the index allowed the engine to skip.
	EventQueryResult = query.Result
	// SegmentIndex is the decoded index section of one segment's container,
	// written when the segment seals.
	SegmentIndex = obs.SegIndex
)

// ParseBreakpoints parses a comma-separated breakpoint/watchpoint spec list;
// arm them with SimOptions.Breaks.
func ParseBreakpoints(s string) ([]Breakpoint, error) { return query.ParseBreaks(s) }

// ParseEventQuery parses a whitespace-separated query spec.
func ParseEventQuery(s string) (EventQuery, error) { return query.ParseQuery(s) }

// RunEventQuery answers a query from a spill directory via the per-segment
// index: segments whose index proves they hold no matches materialize no
// events.
func RunEventQuery(dir string, q EventQuery) (*EventQueryResult, error) { return query.Run(dir, q) }

// SpillCheckpoints extracts every checkpoint recorded in a spill directory,
// in cycle order — the rewind anchors for at-cycle state reconstruction.
func SpillCheckpoints(dir string) ([]Checkpoint, error) { return query.Checkpoints(dir) }

// Supervision (DESIGN.md §11): bounded-slot admission, per-run cycle budgets
// and wall-clock watchdogs, panic isolation with DeadlockReport-style
// diagnostics, finalize retry with seeded exponential backoff, and a
// per-workload circuit breaker.
type (
	// Supervisor executes submitted runs on a bounded worker pool with
	// layered guards; every run reaches a classified terminal state.
	Supervisor = supervise.Supervisor
	// SuperviseConfig configures a Supervisor.
	SuperviseConfig = supervise.Config
	// RunSpec describes one run to supervise.
	RunSpec = supervise.Spec
	// RunLimits bounds one run (cycle budget, wall clock, slice).
	RunLimits = supervise.Limits
	// RunOutcome is a run's terminal record.
	RunOutcome = supervise.Outcome
	// RunState classifies a run's lifecycle position.
	RunState = supervise.State
	// Backoff is a deterministic seeded exponential backoff schedule,
	// shared by the supervisor's sink retries and the host controller's
	// Send retries.
	Backoff = supervise.Backoff
)

// Supervised run states.
const (
	RunQueued      = supervise.StateQueued
	RunRunning     = supervise.StateRunning
	RunCompleted   = supervise.StateCompleted
	RunFailed      = supervise.StateFailed
	RunQuarantined = supervise.StateQuarantined
)

// NewSupervisor starts a supervisor with cfg's worker pool.
func NewSupervisor(cfg SuperviseConfig) *Supervisor { return supervise.New(cfg) }

// Stall analysis (DESIGN.md §10): attribution and critical-path extraction
// over a recorded timeline, exportable as JSON, folded stacks, and pprof.
type (
	// StallAttribution is the full analysis of one timeline: per-(unit, op,
	// resource) stall totals plus per-unit and end-to-end critical chains.
	StallAttribution = analyze.Attribution
	// StallRow is one attribution bucket.
	StallRow = analyze.Row
	// StallChainLink is one span on a critical chain.
	StallChainLink = analyze.ChainLink
)

// AttributeStalls analyzes a finalized timeline.
func AttributeStalls(t *Timeline) *StallAttribution { return analyze.Attribute(t) }

// WriteStallAttribution serializes an attribution as deterministic JSON.
func WriteStallAttribution(w io.Writer, a *StallAttribution) error { return analyze.WriteJSON(w, a) }

// WriteFoldedStacks writes the attribution as folded stacks (flamegraph.pl).
func WriteFoldedStacks(w io.Writer, a *StallAttribution) error { return analyze.WriteFolded(w, a) }

// WriteStallPprof writes the attribution as a gzipped pprof profile that
// `go tool pprof -http` renders as a flamegraph.
func WriteStallPprof(w io.Writer, a *StallAttribution) error { return analyze.WritePprof(w, a) }

// Differential profiling (DESIGN.md §15): deterministic cross-run comparison
// of two observability records — per-(unit, op, resource) stall deltas with
// improved/regressed/neutral verdicts under configurable thresholds,
// critical-path shift, and grid-aware metrics-series deltas — emitted as a
// canonical byte-stable JSON report.
type (
	// DiffReport is the full comparison of run B against baseline run A.
	DiffReport = diff.Report
	// DiffRowDelta is one (unit, op, resource) bucket's delta and verdict.
	DiffRowDelta = diff.RowDelta
	// DiffThresholds gates verdicts: a delta must exceed both the relative
	// and the absolute bound to leave neutral.
	DiffThresholds = diff.Thresholds
	// DiffVerdict is improved, regressed, or neutral; ExitCode maps it to
	// the oclprof -diff process exit status (3 on regressed).
	DiffVerdict = diff.Verdict
	// SpillDiffSide is one spill directory's half of a CompareSpillDiff:
	// its attribution plus the index-pruning evidence.
	SpillDiffSide = diff.SpillSide
)

// Diff verdicts.
const (
	DiffImproved  = diff.Improved
	DiffRegressed = diff.Regressed
	DiffNeutral   = diff.Neutral
)

// DefaultDiffThresholds is the standard verdict gate (1% relative and 16
// cycles absolute, both strictly exceeded).
func DefaultDiffThresholds() DiffThresholds { return diff.DefaultThresholds() }

// CompareRuns diffs run B against baseline run A. Either series may be nil;
// the series section appears only when both are present.
func CompareRuns(a, b *StallAttribution, sa, sb *MetricsSeries, th DiffThresholds) *DiffReport {
	return diff.Compare(a, b, sa, sb, th)
}

// CompareSpillDiff diffs two completed segmented spill directories through
// their segment indexes: segments provably free of attribution-relevant
// records are never decoded, so large spills diff faster than a full double
// replay while producing the identical report.
func CompareSpillDiff(dirA, dirB string, th DiffThresholds) (*DiffReport, *SpillDiffSide, *SpillDiffSide, error) {
	return diff.CompareSpills(dirA, dirB, th)
}

// WriteDiffReport serializes a diff report as deterministic JSON.
func WriteDiffReport(w io.Writer, r *DiffReport) error { return diff.WriteReport(w, r) }

// ReadDiffReport parses a diff report written by WriteDiffReport.
func ReadDiffReport(r io.Reader) (*DiffReport, error) { return diff.ReadReport(r) }

// NewMachine loads a design and starts its autorun kernels.
func NewMachine(d *Design, opts SimOptions) *Machine { return sim.New(d, opts) }

// SetFastForwardDisabled globally disables (true) or re-enables (false) the
// simulator's event-driven fast-forward, which jumps over quiescent windows
// where every unit is provably stalled (DESIGN.md §8). Fast-forward is
// exactly semantics-preserving — cycle counts, profiles, deadlock reports,
// and fault outcomes are identical either way — so this switch exists for
// A/B timing comparisons and equivalence tests. For per-machine control use
// SimOptions.DisableFastForward; Machine.FastForwardStats reports how much
// a run skipped. Designs with a
// cycle hook attached (e.g. a VCDRecorder) never fast-forward regardless.
func SetFastForwardDisabled(v bool) { sim.SetFastForwardDisabled(v) }

// Fault injection and hang diagnostics.
type (
	// FaultPlan is a deterministic, seeded schedule of injected faults the
	// simulator consults every cycle (set SimOptions.Fault).
	FaultPlan = fault.Plan
	// FaultEvent is one scheduled fault.
	FaultEvent = fault.Event
	// FaultKind selects what a FaultEvent does (frozen channel endpoint,
	// dropped non-blocking write, overridden depth, delayed memory, stuck
	// unit, launch skew).
	FaultKind = fault.Kind
	// FaultCampaignSpec bounds randomly generated fault plans.
	FaultCampaignSpec = fault.CampaignSpec
	// DeadlockReport is the structured hang diagnosis Run returns instead of
	// an opaque error: per-unit wait states, the wait-for graph, and a blame
	// verdict.
	DeadlockReport = sim.DeadlockReport
	// DeadlockError is the error wrapping a DeadlockReport.
	DeadlockError = sim.DeadlockError
	// WaitState is one compute unit's row in a DeadlockReport.
	WaitState = sim.WaitState
)

// Fault kinds (see internal/fault).
const (
	FaultFreezeRead    = fault.FreezeRead
	FaultFreezeWrite   = fault.FreezeWrite
	FaultDropWriteNB   = fault.DropWriteNB
	FaultDepthOverride = fault.DepthOverride
	FaultMemDelay      = fault.MemDelay
	FaultStuckUnit     = fault.StuckUnit
	FaultLaunchSkew    = fault.LaunchSkew
)

// ParseFaultSpecs parses a comma-separated fault-plan spec of the form
// "kind[:target]@cycle[+duration][=value]", e.g.
// "freeze-read:pipe@500+2000,mem-delay@100+400=32".
func ParseFaultSpecs(s string) (*FaultPlan, error) { return fault.ParseSpecs(s) }

// NewRandomFaultPlan derives a deterministic fault plan from a seed — the
// building block of fault-soak campaigns.
func NewRandomFaultPlan(seed int64, spec FaultCampaignSpec) *FaultPlan {
	return fault.NewRandomPlan(seed, spec)
}

// Profiling and debugging framework (the paper's contribution).
type (
	// IBuffer is a built intelligent-trace-buffer bank (§4).
	IBuffer = core.IBuffer
	// IBufferConfig configures an ibuffer bank.
	IBufferConfig = core.Config
	// IBufferFunction selects the ibuffer logic-function block.
	IBufferFunction = core.Function
	// HostInterface is the generated Listing-10 host agent kernel.
	HostInterface = host.Interface
	// Controller drives an ibuffer bank from the host.
	Controller = host.Controller
	// PersistentTimer is a Listing-1 free-running counter kernel.
	PersistentTimer = primitives.PersistentTimer
	// Sequencer is a Listing-5 sequence-number server.
	Sequencer = primitives.Sequencer
)

// IBuffer logic functions (§4–§5).
const (
	RecordFunc      = core.Record
	StallMonitor    = core.StallMonitor
	LatencyPair     = core.LatencyPair
	Watchpoint      = core.Watchpoint
	BoundCheck      = core.BoundCheck
	InvarianceCheck = core.InvarianceCheck
	HistogramFunc   = core.Histogram
)

// IBuffer commands, written via Controller.Send.
const (
	CmdReset        = core.CmdReset
	CmdSampleLinear = core.CmdSampleLinear
	CmdSampleCyclic = core.CmdSampleCyclic
	CmdStop         = core.CmdStop
	CmdRead         = core.CmdRead
)

// BuildIBuffer generates an ibuffer bank (channels + replicated autorun
// kernel) into the program.
func BuildIBuffer(p *Program, cfg IBufferConfig) (*IBuffer, error) { return core.Build(p, cfg) }

// BuildHDLIBuffer generates an interface-compatible ibuffer bank whose logic
// block is an opaque HDL module instead of OpenCL-coded logic — the ablation
// partner for the paper's "entirely coded in OpenCL" claim.
func BuildHDLIBuffer(p *Program, cfg IBufferConfig) (*IBuffer, error) { return core.BuildHDL(p, cfg) }

// BuildHostInterface generates the read_host kernel for an ibuffer bank.
func BuildHostInterface(p *Program, ib *IBuffer) *HostInterface { return host.BuildInterface(p, ib) }

// NewController wires a machine to an ibuffer bank's host interface.
func NewController(m *Machine, ifc *HostInterface) (*Controller, error) {
	return host.NewController(m, ifc)
}

// AddHDLTimer registers the get_time HDL library function (Listing 3).
func AddHDLTimer(p *Program) *LibFunc { return primitives.AddHDLTimer(p) }

// AddPersistentTimer builds a Listing-1 persistent counter kernel driving n
// depth-0 channels.
func AddPersistentTimer(p *Program, base string, n int) *PersistentTimer {
	return primitives.AddPersistentTimer(p, base, n)
}

// AddPersistentTimerPerChannel builds n independent counter kernels — the
// §3.1 configuration subject to launch skew.
func AddPersistentTimerPerChannel(p *Program, base string, n int) []*PersistentTimer {
	return primitives.AddPersistentTimerPerChannel(p, base, n)
}

// AddSequencer builds a Listing-5 sequence-number server.
func AddSequencer(p *Program, chName string) *Sequencer { return primitives.AddSequencer(p, chName) }

// GetTime emits a pinned HDL timestamp read (Listing 4); pass a value the
// event produces as dep.
func GetTime(b *Builder, timer *LibFunc, dep Val) Val { return primitives.GetTime(b, timer, dep) }

// ReadTimestamp emits a Listing-2 persistent-counter read site.
func ReadTimestamp(b *Builder, ch *Chan) Val { return primitives.ReadTimestamp(b, ch) }

// NextSeq emits a sequence-number read site (Listings 6–7).
func NextSeq(b *Builder, s *Sequencer) Val { return primitives.NextSeq(b, s) }

// TakeSnapshot emits a Listing-9 take_snapshot instrumentation site.
func TakeSnapshot(b *Builder, ib *IBuffer, id int, in Val) { monitor.TakeSnapshot(b, ib, id, in) }

// AddWatch emits a Listing-11 add_watch site configuring the watched address.
func AddWatch(b *Builder, ib *IBuffer, id int, addr Val) { monitor.AddWatch(b, ib, id, addr) }

// MonitorAddress emits a Listing-11 monitor_address site streaming a memory
// operation (address + value tag) through the ibuffer.
func MonitorAddress(b *Builder, ib *IBuffer, id int, addr, tag Val) {
	monitor.MonitorAddress(b, ib, id, addr, tag)
}

// Assert emits an in-circuit assertion: when cond is false, the code is
// recorded (with a timestamp) in the ibuffer instance. The check never
// stalls the design under test.
func Assert(b *Builder, ib *IBuffer, id int, cond Val, code int64) {
	monitor.Assert(b, ib, id, cond, code)
}

// Trace analysis.
type (
	// Record is one decoded trace entry.
	Record = trace.Record
	// WatchEvent is one decoded watchpoint record.
	WatchEvent = trace.WatchEvent
	// LatencyStats summarizes a latency series.
	LatencyStats = trace.Stats
	// Histogram is a binned latency view.
	Histogram = trace.Histogram
)

// ValidRecords filters never-written trace entries.
func ValidRecords(recs []Record) []Record { return trace.Valid(recs) }

// PairLatencies pairs two snapshot-site traces into per-event latencies.
func PairLatencies(a, b []Record) []int64 { return trace.Latencies(a, b) }

// SummarizeLatencies computes latency statistics.
func SummarizeLatencies(lat []int64) LatencyStats { return trace.Summarize(lat) }

// NewHistogram bins a latency series for display.
func NewHistogram(values []int64, width int64, nbins int) Histogram {
	return trace.NewHistogram(values, width, nbins)
}

// DecodeWatch unpacks watchpoint-family records.
func DecodeWatch(recs []Record) []WatchEvent { return trace.DecodeWatch(recs, core.TagBits) }
