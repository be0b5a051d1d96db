package sim

import (
	"encoding/json"
	"testing"

	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
)

// TestIdleFixpointPassthroughCarried covers an autorun poller whose carried
// gate passes from phi to Next unchanged, so each iteration can forward it
// at issue, and whose store depends on it. Jumps over the poller's idle
// cycles must keep the carried chain in step with the issue counter: every
// arrival after a window is still stored, and the final state dump equals
// that of a machine that stepped every cycle.
func TestIdleFixpointPassthroughCarried(t *testing.T) {
	p := kir.NewProgram("poller")
	in := p.AddChan("in", 4, kir.I64)
	poll := p.AddKernel("poll", kir.Autorun)
	seen := poll.AddLocal("seen", kir.I64, 64)
	pb := poll.NewBuilder()
	pb.Forever([]kir.Val{pb.Ci64(1)}, func(lb *kir.Builder, _ kir.Val, c []kir.Val) []kir.Val {
		d, ok := lb.ChanReadNB(in)
		lb.If(lb.And(ok, lb.CmpNE(c[0], lb.Ci64(0))), func(tb *kir.Builder) {
			tb.LocalStore(seen, tb.And(d, tb.Ci64(63)), d)
		})
		return []kir.Val{c[0]}
	})
	prod := p.AddKernel("chase", kir.SingleTask)
	next := prod.AddGlobal("next", kir.I64)
	b := prod.NewBuilder()
	b.ForN("hop", 24, []kir.Val{b.Ci64(0)}, func(lb *kir.Builder, _ kir.Val, c []kir.Val) []kir.Val {
		v := lb.Load(next, c[0])
		lb.ChanWrite(in, v)
		return []kir.Val{v}
	})
	d := compile(t, p, hls.Options{})

	run := func(disableFF bool) (string, FastForwardStats) {
		m := New(d, Options{DisableFastForward: disableFF})
		buf := must(m.NewBuffer("next", kir.I64, 64))
		for i := range buf.Data {
			buf.Data[i] = int64(i*29+7) % 64
		}
		if _, err := m.Launch("chase", Args{"next": buf}); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		m.Step(8) // the last arrival drains through the poller
		if w := m.units[0].locals[0].Writes; w != 24 {
			t.Fatalf("poller stored %d of 24 arrivals (fast-forward off: %v)", w, disableFF)
		}
		dump, err := json.Marshal(m.StateDump())
		if err != nil {
			t.Fatal(err)
		}
		return string(dump), m.FastForwardStats()
	}
	want, _ := run(true)
	got, ff := run(false)
	if ff.Jumps == 0 {
		t.Fatal("the idle poller never fast-forwarded")
	}
	if got != want {
		t.Fatalf("state differs with fast-forward:\n%s\n%s", want, got)
	}
}

// TestIdleFixpointAutorunReply covers an autorun responder whose channel
// write is its only effect on the rest of the machine: it polls a request
// channel and answers each request on a reply channel that a single-task
// client waits on with a blocking read. Between requests the client waits
// on a global load, so windows open with the responder at its idle
// fixpoint. A reply must land on the cycle it lands when stepping.
func TestIdleFixpointAutorunReply(t *testing.T) {
	p := kir.NewProgram("echo")
	req := p.AddChan("req", 0, kir.I64)
	resp := p.AddChan("resp", 0, kir.I64)
	srv := p.AddKernel("srv", kir.Autorun)
	sb := srv.NewBuilder()
	sb.Forever(nil, func(lb *kir.Builder, _ kir.Val, _ []kir.Val) []kir.Val {
		d, ok := lb.ChanReadNB(req)
		lb.If(ok, func(tb *kir.Builder) {
			tb.ChanWrite(resp, tb.Mul(tb.Mul(d, d), d))
		})
		return nil
	})
	cl := p.AddKernel("client", kir.SingleTask)
	next := cl.AddGlobal("next", kir.I64)
	out := cl.AddGlobal("out", kir.I64)
	b := cl.NewBuilder()
	b.ForN("hop", 12, []kir.Val{b.Ci64(0)}, func(lb *kir.Builder, i kir.Val, c []kir.Val) []kir.Val {
		v := lb.Load(next, c[0])
		lb.ChanWrite(req, v)
		lb.Store(out, i, lb.ChanRead(resp))
		return []kir.Val{v}
	})
	d := compile(t, p, hls.Options{})

	run := func(disableFF bool) (string, int64, FastForwardStats) {
		m := New(d, Options{DisableFastForward: disableFF})
		nb := must(m.NewBuffer("next", kir.I64, 16))
		for i := range nb.Data {
			nb.Data[i] = int64(i*5+3) % 16
		}
		ob := must(m.NewBuffer("out", kir.I64, 12))
		if _, err := m.Launch("client", Args{"next": nb, "out": ob}); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		for i, v := int64(0), int64(0); i < 12; i++ {
			v = nb.Data[v]
			if ob.Data[i] != v*v*v {
				t.Fatalf("reply %d = %d, want %d (fast-forward off: %v)", i, ob.Data[i], v*v*v, disableFF)
			}
		}
		dump, err := json.Marshal(m.StateDump())
		if err != nil {
			t.Fatal(err)
		}
		return string(dump), m.Cycle(), m.FastForwardStats()
	}
	want, wantCycle, _ := run(true)
	got, gotCycle, ff := run(false)
	if ff.Jumps == 0 {
		t.Fatal("the idle responder never fast-forwarded")
	}
	if gotCycle != wantCycle {
		t.Fatalf("run ends at cycle %d with fast-forward, %d stepping", gotCycle, wantCycle)
	}
	if got != want {
		t.Fatalf("state differs with fast-forward:\n%s\n%s", want, got)
	}
}
