package sim_test

import (
	"slices"
	"testing"

	"oclfpga/internal/core"
	"oclfpga/internal/device"
	"oclfpga/internal/difftest"
	"oclfpga/internal/experiments"
	"oclfpga/internal/hls"
	"oclfpga/internal/host"
	"oclfpga/internal/kir"
	"oclfpga/internal/sim"
)

// TestDecodedOpMatchesReference checks every op of the E1–E9 designs, the
// simbench design and generated difftest kernels against the reference
// interpreter (reference_test.go), op by op on random machine states.
func TestDecodedOpMatchesReference(t *testing.T) {
	var designs []*hls.Design
	experiments.EnableObserveForTest(0)
	runs := []func() error{
		func() error { _, err := experiments.E1TimestampOverhead(device.StratixV(), 64); return err },
		func() error { _, err := experiments.E2ExecutionOrder(kir.SingleTask); return err },
		func() error { _, err := experiments.E2ExecutionOrder(kir.NDRange); return err },
		func() error { _, err := experiments.E3Verify(8); return err },
		func() error { _, err := experiments.E4StallMonitor(12, 256); return err },
		func() error { _, err := experiments.E5Watchpoints(64); return err },
		func() error { _, err := experiments.E6TimestampPitfalls(); return err },
		func() error { _, err := experiments.E7StallFree(64); return err },
		func() error { _, err := experiments.E8CrossDevice(); return err },
		func() error { _, err := experiments.E9ChannelStall(64); return err },
		func() error { _, err := experiments.RunSimBench(64, false); return err },
	}
	var runErr error
	for _, run := range runs {
		if err := run(); err != nil && runErr == nil {
			runErr = err
		}
	}
	for _, m := range experiments.DisableObserveForTest() {
		if !slices.Contains(designs, m.Design()) {
			designs = append(designs, m.Design())
		}
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	// the HDL-block ibuffer, whose logic is one OpIBufLogic intrinsic
	p := kir.NewProgram("hdl_ibuf")
	ib, err := core.BuildHDL(p, core.Config{Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	host.BuildInterface(p, ib)
	d, err := hls.Compile(p, device.StratixV(), hls.Options{})
	if err != nil {
		t.Fatal(err)
	}
	designs = append(designs, d, widthsDesign(t))
	for seed := int64(0); seed < 40; seed++ {
		for _, c := range []*difftest.Case{
			difftest.Generate(seed, difftest.GenConfig{}),
			difftest.GenerateStream(seed, difftest.GenConfig{}),
		} {
			d, err := hls.Compile(c.Program, device.StratixV(), hls.Options{})
			if err != nil {
				t.Fatalf("%s: %v", c.Program.Name, err)
			}
			designs = append(designs, d)
		}
	}
	if len(designs) < 20 {
		t.Fatalf("only %d designs collected", len(designs))
	}
	done := map[kir.OpKind]int{}
	for i, d := range designs {
		if err := sim.CheckDecodedOps(d, int64(i), 24, done); err != nil {
			t.Errorf("design %s: %v", d.Program.Name, err)
		}
	}
	// every kind the designs use must have completed somewhere, so each
	// executor was compared on a taken path, not only on stalls and skips
	for _, k := range []kir.OpKind{
		kir.OpConst, kir.OpAdd, kir.OpSub, kir.OpMul, kir.OpDiv, kir.OpMod, kir.OpAnd, kir.OpOr, kir.OpXor,
		kir.OpShl, kir.OpShr, kir.OpCmpLT, kir.OpCmpLE, kir.OpCmpEQ, kir.OpCmpNE, kir.OpCmpGE, kir.OpSelect,
		kir.OpLoad, kir.OpStore, kir.OpLocalLoad, kir.OpLocalStore,
		kir.OpChanRead, kir.OpChanWrite, kir.OpChanReadNB, kir.OpChanWriteNB,
		kir.OpGlobalID, kir.OpCall, kir.OpFence, kir.OpIBufLogic,
	} {
		if done[k] == 0 {
			t.Errorf("no %s op completed in any trial", k)
		}
	}
	t.Logf("%d designs; completed trials by kind: %v", len(designs), done)
}

// widthsDesign uses every datapath width: 16- and 8-bit loads, channel and
// local-memory reads, arithmetic and selects, next to 32-bit and boolean
// ones, so each wrap form meets wide operand values.
func widthsDesign(t *testing.T) *hls.Design {
	t.Helper()
	p := kir.NewProgram("widths")
	ch := p.AddChan("c8", 4, kir.U8)
	k := p.AddKernel("widths", kir.SingleTask)
	b := k.NewBuilder()
	loc := k.AddLocal("l16", kir.U16, 16)
	for _, ty := range []kir.Type{kir.U16, kir.U8, kir.I32, kir.B1} {
		arr := k.AddGlobal("a"+ty.String(), ty)
		x, y := b.Load(arr, b.Ci64(0)), b.Load(arr, b.Ci64(1))
		v := b.Select(b.CmpLT(x, y), b.Mul(x, y), b.Sub(x, y))
		v = b.Xor(b.Shl(b.Add(v, x), y), b.Or(b.Shr(v, y), b.Div(x, y)))
		b.Store(arr, b.Ci64(2), b.And(v, b.Mod(x, y)))
	}
	b.LocalStore(loc, b.Ci64(0), b.Load(k.Params[0], b.Ci64(3)))
	b.ChanWrite(ch, b.LocalLoad(loc, b.Ci64(0)))
	b.Store(k.Params[1], b.Ci64(4), b.ChanRead(ch))
	d, err := hls.Compile(p, device.StratixV(), hls.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}
