package hls

import (
	"testing"

	"oclfpga/internal/kir"
	"oclfpga/internal/primitives"
)

// TestIdleFixpointTaintRules checks the static verdict on small autorun
// pollers, one rule per case: a time stamp may be stored under the poll's
// guard once the poll has run, but it may not be taken before the poll,
// decide a guard, address memory, or feed the carried state.
func TestIdleFixpointTaintRules(t *testing.T) {
	cases := []struct {
		name string
		want bool
		body func(lb *kir.Builder, in *kir.Chan, buf *kir.LocalArray, timer *kir.LibFunc, c kir.Val) kir.Val
	}{
		{"stamp after poll", true, func(lb *kir.Builder, in *kir.Chan, buf *kir.LocalArray, timer *kir.LibFunc, c kir.Val) kir.Val {
			d, ok := lb.ChanReadNB(in)
			ts := lb.Call(timer, d)
			lb.If(ok, func(tb *kir.Builder) { tb.LocalStore(buf, tb.Ci32(0), ts) })
			return c
		}},
		{"stamp before poll", false, func(lb *kir.Builder, in *kir.Chan, buf *kir.LocalArray, timer *kir.LibFunc, c kir.Val) kir.Val {
			ts := lb.Call(timer, c)
			_, ok := lb.ChanReadNB(in)
			lb.If(ok, func(tb *kir.Builder) { tb.LocalStore(buf, tb.Ci32(0), ts) })
			return c
		}},
		{"stamp decides a guard", false, func(lb *kir.Builder, in *kir.Chan, buf *kir.LocalArray, timer *kir.LibFunc, c kir.Val) kir.Val {
			d, _ := lb.ChanReadNB(in)
			late := lb.CmpGT(lb.Call(timer, d), lb.Ci64(100))
			lb.If(late, func(tb *kir.Builder) { tb.LocalStore(buf, tb.Ci32(0), d) })
			return c
		}},
		{"stamp addresses memory", false, func(lb *kir.Builder, in *kir.Chan, buf *kir.LocalArray, timer *kir.LibFunc, c kir.Val) kir.Val {
			d, ok := lb.ChanReadNB(in)
			slot := lb.And(lb.Call(timer, d), lb.Ci64(7))
			lb.If(ok, func(tb *kir.Builder) { tb.LocalStore(buf, slot, d) })
			return c
		}},
		{"stamp carried", false, func(lb *kir.Builder, in *kir.Chan, buf *kir.LocalArray, timer *kir.LibFunc, c kir.Val) kir.Val {
			d, ok := lb.ChanReadNB(in)
			return lb.Select(ok, lb.Call(timer, d), c)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := kir.NewProgram("poller")
			timer := primitives.AddHDLTimer(p)
			in := p.AddChan("in", 4, kir.I64)
			k := p.AddKernel("poll", kir.Autorun)
			buf := k.AddLocal("buf", kir.I64, 8)
			b := k.NewBuilder()
			b.Forever([]kir.Val{b.Ci64(0)}, func(lb *kir.Builder, _ kir.Val, c []kir.Val) []kir.Val {
				return []kir.Val{tc.body(lb, in, buf, timer, c[0])}
			})
			b.IVDep()
			d := compile(t, p, Options{})
			var got bool
			d.Kernels[0].Root.WalkRegions(func(r *XRegion) { got = got || r.IdleFixpoint })
			if got != tc.want {
				t.Fatalf("IdleFixpoint = %v, want %v", got, tc.want)
			}
		})
	}
}
