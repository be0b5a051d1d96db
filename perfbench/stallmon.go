package main

import (
	"fmt"
	"time"

	"oclfpga/internal/host"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/sim"
	"oclfpga/internal/trace"
)

// stallmon-tick: the paper's §5.1 Listing 9. The autorun monitors poll every
// cycle, so fast-forward never jumps: the simulator's tick and the
// ibuffer/host readback path do all the work and obs does none. Nothing is
// observed or spilled.
const (
	smSize  = 10
	smDepth = 256
)

type stallmon struct {
	e    *env
	mm   *matmulDesign
	a, b []int64
	want []int64
	ref  *trace.Stats // the first op's latency stats; every later op must match
}

func newStallmon(e *env) bench { return &stallmon{e: e} }

func (s *stallmon) setup() error {
	rng := s.e.newRNG()
	t0 := time.Now()
	mm, err := compileMatMul(smSize, smDepth)
	if err != nil {
		return err
	}
	s.e.compiled(t0)
	s.mm = mm
	n := smSize * smSize
	s.a, s.b = make([]int64, n), make([]int64, n)
	for i := range s.a {
		s.a[i], s.b[i] = rng.Int63n(100), rng.Int63n(100)
	}
	s.want = matmulExpected(s.a, s.b, smSize)
	s.ref = nil
	return nil
}

func (s *stallmon) close() {}

// smRun is one op's handles and readback.
type smRun struct {
	m             *sim.Machine
	dc            *mem.Buffer
	before, after []trace.Record
	lats          []int64
	st            trace.Stats
	runCycles     int64 // cycles inside the matmul's Run
	runStepped    int64
}

func (s *stallmon) op(l *ledger) (opOut, error) {
	r := &smRun{}
	c := s.e.startOp(l)
	err := s.run(l, r)
	st := s.e.stopOp(l, c)
	if err != nil {
		return opOut{}, err
	}
	return s.check(l, r, st)
}

// run is the op's timed part: Listing 10's host flow around one matmul.
func (s *stallmon) run(l *ledger, r *smRun) error {
	var ctl *host.Controller
	var u *sim.Unit
	var err error
	args := sim.Args{}
	l.time("sim.build", func() {
		r.m = sim.New(s.mm.d, sim.Options{})
		for _, in := range []struct {
			name string
			data []int64
		}{{"data_a", s.a}, {"data_b", s.b}, {"data_c", nil}} {
			var buf *mem.Buffer
			if buf, err = r.m.NewBuffer(in.name, kir.I32, smSize*smSize); err != nil {
				return
			}
			copy(buf.Data, in.data)
			args[in.name] = buf
		}
		r.dc = args["data_c"].(*mem.Buffer)
		ctl, err = host.NewController(r.m, s.mm.ifc)
	})
	if err != nil {
		return err
	}
	// The monitors start sampling before the kernel launches: StartLinear
	// drives the machine until each command is delivered.
	l.time("host.control", func() {
		for id := 0; id < 2 && err == nil; id++ {
			err = ctl.StartLinear(id)
		}
	})
	if err != nil {
		return err
	}
	if u, err = r.m.Launch("matmul", args); err != nil {
		return err
	}
	l.time("sim.run", func() {
		c0, ff0 := r.m.Cycle(), r.m.FastForwardStats()
		err = r.m.Run()
		r.runCycles = r.m.Cycle() - c0
		r.runStepped = r.runCycles - (r.m.FastForwardStats().Skipped - ff0.Skipped)
	})
	if err != nil {
		return err
	}
	if !u.Done() {
		return fmt.Errorf("matmul did not finish by cycle %d", r.m.Cycle())
	}
	l.time("host.control", func() {
		for id := 0; id < 2 && err == nil; id++ {
			err = ctl.Stop(id)
		}
	})
	if err != nil {
		return err
	}
	l.time("host.read_trace", func() {
		if r.before, err = ctl.ReadTrace(0); err == nil {
			r.after, err = ctl.ReadTrace(1)
		}
	})
	if err != nil {
		return err
	}
	l.time("trace.decode", func() {
		r.lats = trace.Latencies(trace.Valid(r.before), trace.Valid(r.after))
		r.st = trace.Summarize(r.lats)
	})
	return nil
}

// check runs after the op's clock stops: the product against the Go
// reference, and the trace's sample count and latency stats against the
// first op's.
func (s *stallmon) check(l *ledger, r *smRun, st opStats) (opOut, error) {
	if err := checkOutput(r.dc.Data, s.want); err != nil {
		return opOut{}, err
	}
	if r.st.N == 0 {
		return opOut{}, fmt.Errorf("stall monitor recorded no latency samples")
	}
	if s.ref == nil {
		st := r.st
		s.ref = &st
	} else if r.st != *s.ref {
		return opOut{}, fmt.Errorf("latency stats %+v differ from the first op's %+v", r.st, *s.ref)
	}
	ff := r.m.FastForwardStats()
	out := opOut{opStats: st, counts: map[string]int64{
		"sim.cycles": r.m.Cycle(), "sim.ff_jumps": ff.Jumps,
		"host.trace_records": int64(len(r.before) + len(r.after)), "trace.samples": int64(r.st.N),
	}}
	if l != nil {
		self, _ := l.opSelf(l.op)
		out.layers = map[string]float64{
			"sim.cycles":               float64(r.m.Cycle()),
			"sim.stepped_cycles":       float64(r.m.Cycle() - ff.Skipped),
			"sim.ff_jumps":             float64(ff.Jumps),
			"sim.ns_per_stepped_cycle": self["sim.run"] * 1e6 / float64(r.runStepped),
			"sim.simcycles_per_s":      float64(r.runCycles) / (self["sim.run"] / 1e3),
			"host.trace_records":       float64(len(r.before) + len(r.after)),
		}
	}
	return out, nil
}
