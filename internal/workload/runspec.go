package workload

import (
	"errors"
	"fmt"
	"strconv"

	"oclfpga/internal/device"
	"oclfpga/internal/fault"
	"oclfpga/internal/hls"
	"oclfpga/internal/host"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/sim"
	"oclfpga/internal/trace"
)

// RunSpec is the recipe of one deterministic run: everything that shapes its
// recorded event stream. It travels inside a spill's manifest (Meta plus the
// manifest's own SampleEvery), so a spill alone is enough to re-execute the
// run that wrote it — for scrub repair, crash resume, rewind and breakpoints.
type RunSpec struct {
	Workload string // registry name (registry.go)
	N        int    // workload size; 0 = the workload's default
	Device   string // s5 | a10 | a10i; "" = s5
	Inject   string // fault plan, fault.ParseSpecs syntax; "" = none

	SampleEvery     int64 // metrics grid (Manifest.SampleEvery, not Meta)
	CheckpointEvery int64 // rewind checkpoint grid; 0 = off
	StallLimit      int64 // hang-detection window; 0 = the workload's default

	DepthOpt   bool   // HLS channel-depth optimization pass
	StallMon   bool   // stall-monitor ibuffer bank (matmul, fir)
	Watch      bool   // smart watchpoint (matmul)
	Order      bool   // sequence + timestamp capture (matvec)
	Timestamps string // chase instrumentation: "" | cl | hdl
	Trace      bool   // post-run phase: stop and drain every monitor bank
	DisableFF  bool   // step every cycle

	// CycleBudget is the supervised run's cycle budget (0 = none): the one
	// drive limit that shapes the record, since an exhausted run ends there.
	CycleBudget int64
	Tenant      string
}

// RunSpecVersion is the Meta vocabulary this package writes under "spec".
// Meta without the key is version 1, which decodes unless it is sliced.
const RunSpecVersion = 2

// ErrSlicedSpec refuses a version-1 supervised spec: its spill's bytes embed
// the fast-forward jumps its supervisor's RunFor slices cut, which
// slice-invariant re-execution no longer reproduces.
var ErrSlicedSpec = errors.New("version 1 supervised spec: recorded under a slice schedule re-execution no longer reproduces")

// MetaError is the typed decode failure: one Meta key whose value does not
// describe a runnable spec.
type MetaError struct {
	Key, Value string
	Err        error
}

func (e *MetaError) Error() string {
	return fmt.Sprintf("run spec: meta %s=%q: %v", e.Key, e.Value, e.Err)
}

func (e *MetaError) Unwrap() error { return e.Err }

// UnknownWorkloadError is returned by Build and Execute for a spec whose
// workload has no entry in the registry.
type UnknownWorkloadError struct{ Name string }

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("workload: no recipe for workload %q", e.Name)
}

// Meta encodes the spec as manifest Meta. Keys are written only when they
// differ from their zero value, except spec, workload and ckptEvery, which
// are always present; an absent key therefore decodes to the zero value.
func (s RunSpec) Meta() map[string]string {
	meta := map[string]string{
		"spec":      strconv.Itoa(RunSpecVersion),
		"workload":  s.Workload,
		"ckptEvery": strconv.FormatInt(s.CheckpointEvery, 10),
	}
	set := func(key, val string) {
		if val != "" {
			meta[key] = val
		}
	}
	setInt := func(key string, v int64) {
		if v != 0 {
			meta[key] = strconv.FormatInt(v, 10)
		}
	}
	setBool := func(key string, on bool) {
		if on {
			meta[key] = "1"
		}
	}
	setInt("n", int64(s.N))
	set("device", s.Device)
	set("inject", s.Inject)
	setInt("stalllimit", s.StallLimit)
	setBool("chandepthopt", s.DepthOpt)
	setBool("stallmon", s.StallMon)
	setBool("watch", s.Watch)
	setBool("order", s.Order)
	set("timestamps", s.Timestamps)
	setBool("trace", s.Trace)
	setBool("disableFF", s.DisableFF)
	setInt("cycle-budget", s.CycleBudget)
	set("tenant", s.Tenant)
	return meta
}

// DecodeRunSpec is Meta's inverse: meta is a manifest's Meta and sampleEvery
// its SampleEvery. Keys it does not know are ignored; a value it cannot use
// is a *MetaError, and so is a version-1 supervised spec (ErrSlicedSpec).
// The workload name is not resolved here: a spec naming a workload outside
// the registry decodes, and Build refuses it.
func DecodeRunSpec(meta map[string]string, sampleEvery int64) (RunSpec, error) {
	s := RunSpec{SampleEvery: sampleEvery}
	switch v, ok := meta["spec"]; {
	case !ok || v == "1":
		for _, key := range []string{"slice", "cycle-budget"} {
			if v, sliced := meta[key]; sliced {
				return s, &MetaError{key, v, ErrSlicedSpec}
			}
		}
	case v != strconv.Itoa(RunSpecVersion):
		return s, &MetaError{"spec", v, errors.New("unsupported run spec version")}
	}
	s.Workload = meta["workload"]
	if s.Workload == "" {
		return s, &MetaError{"workload", "", errors.New("missing")}
	}
	var err error
	// intKey parses an integer key; nonNeg rejects values below zero.
	intKey := func(key string, nonNeg bool) int64 {
		v, ok := meta[key]
		if !ok || err != nil {
			return 0
		}
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr == nil && nonNeg && n < 0 {
			perr = errors.New("negative")
		}
		if perr != nil {
			err = &MetaError{key, v, perr}
		}
		return n
	}
	boolKey := func(key string) bool {
		v, ok := meta[key]
		if ok && v != "1" && err == nil {
			err = &MetaError{key, v, errors.New(`want "1" or absent`)}
		}
		return ok
	}
	s.N = int(intKey("n", true))
	s.CheckpointEvery = intKey("ckptEvery", false)
	s.StallLimit = intKey("stalllimit", false)
	s.CycleBudget = intKey("cycle-budget", true)
	s.DepthOpt = boolKey("chandepthopt")
	s.StallMon = boolKey("stallmon")
	s.Watch = boolKey("watch")
	s.Order = boolKey("order")
	s.Trace = boolKey("trace")
	s.DisableFF = boolKey("disableFF")
	s.Device = meta["device"]
	s.Inject = meta["inject"]
	s.Timestamps = meta["timestamps"]
	s.Tenant = meta["tenant"]
	if err != nil {
		return s, err
	}
	if _, err := s.device(); err != nil {
		return s, &MetaError{"device", s.Device, err}
	}
	if _, err := s.TimestampKind(); err != nil {
		return s, &MetaError{"timestamps", s.Timestamps, err}
	}
	if _, err := s.faultPlan(); err != nil {
		return s, &MetaError{"inject", s.Inject, err}
	}
	return s, nil
}

// SpecFromManifest decodes the run spec a spill's manifest records.
func SpecFromManifest(man *obs.Manifest) (RunSpec, error) {
	return DecodeRunSpec(man.Meta, man.SampleEvery)
}

// SegmentConfig is the spill configuration that records s: the stream is
// named after the workload and the manifest carries the spec. Callers add
// the rotation thresholds and filesystem.
func (s RunSpec) SegmentConfig(dir string) obs.SegmentConfig {
	return obs.SegmentConfig{Dir: dir, Design: s.Workload, SampleEvery: s.SampleEvery, Meta: s.Meta()}
}

// Observe is the recorder configuration s records under, streaming into sink
// (nil buffers the record in memory only).
func (s RunSpec) Observe(sink obs.Sink) *obs.Config {
	return &obs.Config{SampleEvery: s.SampleEvery, CheckpointEvery: s.CheckpointEvery, Sink: sink}
}

func (s RunSpec) device() (*device.Device, error) {
	switch s.Device {
	case "", "s5":
		return device.StratixV(), nil
	case "a10":
		return device.Arria10(), nil
	case "a10i":
		return device.Arria10Integrated(), nil
	}
	return nil, fmt.Errorf("unknown device %q (want s5, a10 or a10i)", s.Device)
}

// TimestampKind is the chase instrumentation variant s.Timestamps selects.
func (s RunSpec) TimestampKind() (TimestampKind, error) {
	switch s.Timestamps {
	case "":
		return NoTimestamp, nil
	case "cl":
		return CLCounter, nil
	case "hdl":
		return HDLCounter, nil
	}
	return NoTimestamp, fmt.Errorf("unknown timestamps kind %q (want cl or hdl)", s.Timestamps)
}

func (s RunSpec) faultPlan() (*fault.Plan, error) {
	if s.Inject == "" {
		return nil, nil
	}
	return fault.ParseSpecs(s.Inject)
}

// Run is a machine built from a RunSpec: compiled, buffers staged, the
// pre-run host phase done and the kernels launched, sitting where the
// recorded run started driving.
type Run struct {
	Spec   RunSpec
	N      int // the workload size run: Spec.N or the workload's default
	Design *hls.Design
	M      *sim.Machine
	// Units are the launched kernels a report covers, in launch order.
	Units []*sim.Unit
	// Traces is the post-run readout by monitor bank ("stallmon", "watch"):
	// one decoded record slice per ibuffer instance. PostRun fills it when
	// the spec records the trace phase.
	Traces map[string][][]trace.Record

	probes    []probe
	postDone  bool
	sinkFinal bool // recipe.sinkFinalize
}

// probe is one monitor bank's host controller, drained by the trace phase.
type probe struct {
	name string
	ctl  *host.Controller
}

// Build compiles the spec's workload and stages its machine, recording
// under o (nil runs unobserved; re-execution for a state dump needs no
// record). The machine has not been driven.
func (s RunSpec) Build(o *obs.Config) (*Run, error) { return s.build(o, nil) }

// build is Build with the machine options finally adjusted by opt. A failed
// pre-run host phase returns the run with its error: a break halts it there.
func (s RunSpec) build(o *obs.Config, opt func(*sim.Options)) (*Run, error) {
	rc, ok := registry[s.Workload]
	if !ok {
		return nil, &UnknownWorkloadError{s.Workload}
	}
	dev, err := s.device()
	if err != nil {
		return nil, err
	}
	plan, err := s.faultPlan()
	if err != nil {
		return nil, err
	}
	if _, err := s.TimestampKind(); err != nil {
		return nil, err
	}
	n := rc.n
	if s.N > 0 {
		n = s.N
	}
	p, stage, err := rc.program(s, n)
	if err != nil {
		return nil, err
	}
	d, err := hls.Compile(p, dev, hls.Options{OptimizeChannelDepths: s.DepthOpt})
	if err != nil {
		return nil, err
	}
	opts := sim.Options{StallLimit: s.StallLimit, DisableFastForward: s.DisableFF, Fault: plan, Observe: o}
	if rc.tune != nil {
		rc.tune(&opts)
	}
	if opt != nil {
		opt(&opts)
	}
	r := &Run{Spec: s, N: n, Design: d, M: sim.New(d, opts), sinkFinal: rc.sinkFinalize}
	return r, stage(r)
}

// Drive runs the machine to completion the way the recorded run did: one
// Run, or a RunFor over the cycle budget the recorded run was held to.
func (r *Run) Drive() error {
	if r.Spec.CycleBudget > 0 {
		return r.M.RunFor(r.Spec.CycleBudget)
	}
	return r.M.Run()
}

// PostRun is the recorded post-run host phase: with Spec.Trace, every
// monitor bank is stopped and drained into Traces. The host commands run
// machine cycles, so they are part of the stream. Idempotent.
func (r *Run) PostRun() error {
	if r.postDone || !r.Spec.Trace {
		return nil
	}
	r.postDone = true
	for _, p := range r.probes {
		n := p.ctl.IB.Config.N
		for id := 0; id < n; id++ {
			if err := p.ctl.Stop(id); err != nil {
				return err
			}
		}
		recs := make([][]trace.Record, n)
		for id := range recs {
			var err error
			if recs[id], err = p.ctl.ReadTrace(id); err != nil {
				return err
			}
		}
		if r.Traces == nil {
			r.Traces = map[string][][]trace.Record{}
		}
		r.Traces[p.name] = recs
	}
	return nil
}

// Halt re-executes the recorded run unobserved — pre-run host phase, drive,
// post-run phase — under breaks and returns it halted at the first hit, or
// with a nil hit when none fired by the end of the phases and of idling the
// fabric on to the last cycle=N break. opt, when set, adjusts the options.
func (s RunSpec) Halt(breaks []query.Break, opt func(*sim.Options)) (*Run, *sim.BreakHit, error) {
	r, err := s.build(nil, func(o *sim.Options) {
		o.Breaks = breaks
		if opt != nil {
			opt(o)
		}
	})
	if r == nil {
		return nil, nil, err
	}
	var last int64
	for _, b := range breaks {
		if b.Kind == query.BreakCycle {
			last = max(last, b.N)
		}
	}
	idle := func() error { return r.M.RunTo(max(last, r.M.Cycle())) }
	for _, phase := range []func() error{r.Drive, r.PostRun, idle} {
		if err == nil {
			err = phase()
		}
	}
	var be *sim.BreakError
	if errors.As(err, &be) {
		return r, be.Hit, nil
	}
	return r, nil, err
}

// Inspect re-executes the recorded run unobserved and calls fn with the
// machine paused exactly at each of cycles (fn must only read it), whether
// the cycle falls in a host phase, the drive, or past the run's end: Halt at
// the last cycle, capturing the others on the way. fn's first error is
// Inspect's.
func (s RunSpec) Inspect(cycles []int64, fn func(m *sim.Machine, cycle int64) error) error {
	var ferr error
	stop := query.Break{Kind: query.BreakCycle}
	for _, c := range cycles {
		stop.N = max(stop.N, c)
	}
	_, _, err := s.Halt([]query.Break{stop}, func(o *sim.Options) {
		o.CaptureAt, o.OnCapture = cycles, func(m *sim.Machine, c int64) {
			if ferr == nil {
				ferr = fn(m, c)
			}
		}
	})
	if err != nil {
		return err
	}
	return ferr
}

// Execute is the one re-execution path: build the spec's machine recording
// into sink (nil: unobserved), drive it, run the post-run phase, and close
// the record. The returned error carries the sink's finalize failure, so a
// repair sink's typed divergence surfaces here.
func (s RunSpec) Execute(sink obs.Sink) (*Run, error) {
	var o *obs.Config
	if sink != nil {
		o = s.Observe(sink)
	}
	r, err := s.Build(o)
	if err != nil {
		return nil, err
	}
	if err := r.Drive(); err != nil {
		return r, err
	}
	if err := r.PostRun(); err != nil {
		return r, err
	}
	switch {
	case sink == nil:
		return r, nil
	case r.sinkFinal:
		return r, sink.Finalize(r.M.Cycle())
	}
	r.M.Observer() // finalizes the recorder, which finalizes the sink
	return r, r.M.ObserveErr()
}

// Rebuild is the scrub.Rebuild hook every tool shares: it decodes the
// manifest's spec and re-executes it into sink.
func Rebuild(man *obs.Manifest, sink obs.Sink) error {
	s, err := SpecFromManifest(man)
	if err != nil {
		return err
	}
	_, err = s.Execute(sink)
	return err
}
