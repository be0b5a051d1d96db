package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"oclfpga/internal/core"
	"oclfpga/internal/device"
	"oclfpga/internal/fault"
	"oclfpga/internal/hls"
	"oclfpga/internal/host"
	"oclfpga/internal/kir"
	"oclfpga/internal/monitor"
	"oclfpga/internal/sim"
	"oclfpga/internal/trace"
)

// chaseDUT builds a pointer chase that feeds ibuffer instance 0 one packed
// (address, tag) word per hop. Each hop waits on a loop-carried global load,
// so the monitor sits idle for tens of cycles between arrivals.
func chaseDUT(p *kir.Program, ib *core.IBuffer, hops int64) {
	k := p.AddKernel("chase_dut", kir.SingleTask)
	next := k.AddGlobal("next", kir.I64)
	b := k.NewBuilder()
	if ib.Config.Func.NeedsAddrChannel() {
		monitor.AddWatch(b, ib, 0, b.Ci64(3))
	}
	b.ForN("hop", hops, []kir.Val{b.Ci64(0)}, func(lb *kir.Builder, i kir.Val, c []kir.Val) []kir.Val {
		v := lb.Load(next, c[0])
		monitor.MonitorAddress(lb, ib, 0, lb.And(v, lb.Ci64(7)), i)
		return []kir.Val{v}
	})
}

// ffRun is everything an ibuffer session exposes that fast-forward must
// leave unchanged, plus the jump statistics it may change.
type ffRun struct {
	Trace   []trace.Record
	Profile sim.ProfileReport
	Hashes  []uint64 // StateHash every 100 cycles
	Cycle   int64
	ff      sim.FastForwardStats // jumps while the chase runs
	idle    bool                 // the ibuffer loop's static idle-fixpoint verdict
}

// ffSession runs start → chase → stop → read on a fresh machine.
func ffSession(t *testing.T, cfg core.Config, hdl, noFF bool) ffRun {
	t.Helper()
	sim.SetFastForwardDisabled(noFF)
	defer sim.SetFastForwardDisabled(false)
	p := kir.NewProgram("idle")
	build := core.Build
	if hdl {
		build = core.BuildHDL
	}
	ib, err := build(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ifc := host.BuildInterface(p, ib)
	chaseDUT(p, ib, 40)
	d, err := hls.Compile(p, device.StratixV(), hls.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var run ffRun
	for _, xk := range d.Kernels {
		if xk.Name == ib.Kernel.Name {
			xk.Root.WalkRegions(func(r *hls.XRegion) { run.idle = run.idle || r.IdleFixpoint })
		}
	}
	var caps []int64
	for c := int64(100); c <= 20000; c += 100 {
		caps = append(caps, c)
	}
	m := sim.New(d, sim.Options{CaptureAt: caps, OnCapture: func(m *sim.Machine, _ int64) {
		run.Hashes = append(run.Hashes, m.StateHash())
	}})
	ctl := must(host.NewController(m, ifc))
	next := must(m.NewBuffer("next", kir.I64, 64))
	for i := range next.Data {
		next.Data[i] = int64(i*37+11) % 64
	}
	if err := ctl.StartLinear(0); err != nil {
		t.Fatal(err)
	}
	u, err := m.Launch("chase_dut", sim.Args{"next": next})
	if err != nil {
		t.Fatal(err)
	}
	ff0 := m.FastForwardStats()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ff := m.FastForwardStats()
	run.ff = sim.FastForwardStats{Jumps: ff.Jumps - ff0.Jumps, Skipped: ff.Skipped - ff0.Skipped}
	if err := ctl.Stop(0); err != nil {
		t.Fatal(err)
	}
	if run.Trace, err = ctl.ReadTrace(0); err != nil {
		t.Fatal(err)
	}
	run.Profile, run.Cycle = m.Profile(u), m.Cycle()
	return run
}

// TestIBufferIdleFixpointExact runs every logic function, OpenCL-coded and
// as the HDL block, with fast-forward on and off. Trace, profile counters,
// final cycle and the state hash every 100 cycles must be identical. While
// the chase runs, only the monitor polls between arrivals: the loops the
// taint analysis admits must jump there, and LatencyPair and Histogram, which
// carry a time stamp into their state, must keep stepping.
func TestIBufferIdleFixpointExact(t *testing.T) {
	funcs := []core.Function{core.Record, core.StallMonitor, core.LatencyPair, core.Watchpoint,
		core.BoundCheck, core.InvarianceCheck, core.Histogram}
	for _, hdl := range []bool{false, true} {
		for _, f := range funcs {
			impl := "opencl"
			if hdl {
				impl = "hdl"
			}
			t.Run(fmt.Sprintf("%s/%s", impl, f), func(t *testing.T) {
				cfg := core.Config{Depth: 64, Func: f, BoundLo: 2, BoundHi: 6}
				step := ffSession(t, cfg, hdl, true)
				fast := ffSession(t, cfg, hdl, false)
				if len(trace.Valid(step.Trace)) == 0 {
					t.Fatal("the monitor recorded nothing")
				}
				if !reflect.DeepEqual(step, ffRun{Trace: fast.Trace, Profile: fast.Profile,
					Hashes: fast.Hashes, Cycle: fast.Cycle, idle: fast.idle}) {
					t.Fatalf("fast-forward changed the session:\nstepped %+v\nfast    %+v", step, fast)
				}
				wantIdle := hdl || (f != core.LatencyPair && f != core.Histogram)
				if fast.idle != wantIdle {
					t.Fatalf("idle-fixpoint eligibility = %v, want %v", fast.idle, wantIdle)
				}
				if step.ff.Jumps != 0 {
					t.Fatalf("stepped session jumped: %+v", step.ff)
				}
				if wantIdle != (fast.ff.Jumps > 0) {
					t.Fatalf("eligible %v but %d jumps over %d cycles", wantIdle, fast.ff.Jumps, fast.ff.Skipped)
				}
			})
		}
	}
}

// TestHDLIdleBlockedWriter feeds the HDL block through a one-word data
// channel with blocking writes while a fault freezes the block's reads, so
// the writer waits on a full channel. In the thaw tick the block reads the
// queued word and is idle again, while the writer, refused once more, made
// no progress. The read freed the writer's space, so that tick must not open
// a fast-forward window: the session must match the stepped one.
func TestHDLIdleBlockedWriter(t *testing.T) {
	run := func(noFF bool) (ffRun, error) {
		sim.SetFastForwardDisabled(noFF)
		defer sim.SetFastForwardDisabled(false)
		p := kir.NewProgram("blocked")
		ib, err := core.BuildHDL(p, core.Config{Depth: 64, Func: core.Record, DataDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		ifc := host.BuildInterface(p, ib)
		k := p.AddKernel("burst", kir.SingleTask)
		b := k.NewBuilder()
		b.ForN("w", 24, nil, func(lb *kir.Builder, _ kir.Val, _ []kir.Val) []kir.Val {
			lb.ChanWrite(ib.Data[0], lb.Ci64(5))
			return nil
		})
		d, err := hls.Compile(p, device.StratixV(), hls.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fault.ParseSpecs("freeze-read:" + ib.Data[0].Name + "@10+20")
		if err != nil {
			t.Fatal(err)
		}
		m := sim.New(d, sim.Options{StallLimit: 200, Fault: plan})
		ctl := must(host.NewController(m, ifc))
		if err := ctl.StartLinear(0); err != nil {
			t.Fatal(err)
		}
		u, err := m.Launch("burst", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			return ffRun{}, err
		}
		if err := ctl.Stop(0); err != nil {
			t.Fatal(err)
		}
		var r ffRun
		if r.Trace, err = ctl.ReadTrace(0); err != nil {
			t.Fatal(err)
		}
		r.Profile, r.Cycle = m.Profile(u), m.Cycle()
		return r, nil
	}
	step, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Valid(step.Trace)); n != 24 {
		t.Fatalf("the block recorded %d of 24 words", n)
	}
	fast, err := run(false)
	if err != nil {
		t.Fatalf("fast-forward: %v", err)
	}
	if !reflect.DeepEqual(step, fast) {
		t.Fatalf("fast-forward changed the session:\nstepped %+v\nfast    %+v", step, fast)
	}
}
