package workload

import (
	"math"

	"oclfpga/internal/host"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/sim"
)

// recipe is one registry entry: how a workload name becomes a staged machine.
type recipe struct {
	// n is the workload size a spec without one runs at.
	n int
	// program generates the workload's kernel program for s at size n and
	// returns the stager that, on the compiled machine, allocates and fills
	// the buffers, runs the pre-run host phase and launches the kernels.
	program func(s RunSpec, n int) (*kir.Program, func(r *Run) error, error)
	// tune adjusts the machine options (memory model, cycle ceiling, default
	// stall limit).
	tune func(o *sim.Options)
	// sinkFinalize closes a recording with the sink's own Finalize at the end
	// cycle instead of the machine's record finalize, so the end-of-run unit
	// spans and final sample are not streamed. Simbench spills have always
	// been written that way.
	sinkFinalize bool
}

// registry maps every re-executable workload name to its recipe: the seven
// oclprof workloads, the oclmon producer/consumer kernel and simbench.
var registry = map[string]recipe{
	"matvec-st": {n: 50, program: matVecProgram(kir.SingleTask)},
	"matvec-nd": {n: 50, program: matVecProgram(kir.NDRange)},
	"matmul":    {n: 16, program: matMulProgram},
	"chase":     {n: 2000, program: chaseProgram},
	"vecadd":    {n: 1024, program: vecAddProgram},
	"fir":       {n: 512, program: firProgram},
	"chanstall": {n: 256, program: chanStallProgram, tune: func(o *sim.Options) {
		if o.StallLimit == 0 {
			o.StallLimit = 2000 // diagnose injected hangs promptly
		}
	}},
	"oclmon": {n: 8192, program: stallPipeProgram, tune: func(o *sim.Options) {
		// A hosted run's cycle budget is the operative ceiling; the sim's own
		// 20M-cycle default would fail long runs before the budget applies.
		o.MaxCycles = math.MaxInt64 / 2
		o.MemConfig = StallPipeMem
	}},
	"simbench": {n: 2048, program: stallPipeProgram, sinkFinalize: true, tune: func(o *sim.Options) {
		o.MemConfig = StallPipeMem
	}},
}

// bufs allocates machine buffers, keeping the first error so a stager can
// allocate a whole set and check once.
type bufs struct {
	m   *sim.Machine
	err error
}

func (b *bufs) new(name string, elem kir.Type, n int) *mem.Buffer {
	if b.err != nil {
		return nil
	}
	buf, err := b.m.NewBuffer(name, elem, n)
	b.err = err
	return buf
}

// launch launches kernel (NDRange over global when global > 0) and appends
// the unit to r.Units.
func (r *Run) launch(kernel string, global int64, args sim.Args) error {
	var u *sim.Unit
	var err error
	if global > 0 {
		u, err = r.M.LaunchND(kernel, global, args)
	} else {
		u, err = r.M.Launch(kernel, args)
	}
	if err == nil {
		r.Units = append(r.Units, u)
	}
	return err
}

// attach builds the host controller for a monitor bank, puts its first n
// instances into linear sampling, and registers it for the trace phase.
func (r *Run) attach(name string, ifc *host.Interface, n int) error {
	ctl, err := host.NewController(r.M, ifc)
	if err != nil {
		return err
	}
	for id := 0; id < n; id++ {
		if err := ctl.StartLinear(id); err != nil {
			return err
		}
	}
	r.probes = append(r.probes, probe{name, ctl})
	return nil
}

func matVecProgram(mode kir.Mode) func(s RunSpec, n int) (*kir.Program, func(*Run) error, error) {
	return func(s RunSpec, n int) (*kir.Program, func(*Run) error, error) {
		p := kir.NewProgram(s.Workload)
		mv := BuildMatVec(p, MatVecConfig{Mode: mode, N: n, Instrument: s.Order})
		return p, func(r *Run) error {
			cfg := mv.Config
			b := bufs{m: r.M}
			x := b.new("x", kir.I32, cfg.N*cfg.Num)
			y := b.new("y", kir.I32, cfg.Num)
			z := b.new("z", kir.I32, cfg.N)
			args := sim.Args{"x": x, "y": y, "z": z}
			if cfg.Instrument {
				args["info1"] = b.new("info1", kir.I64, mv.InfoSize)
				args["info2"] = b.new("info2", kir.I32, mv.InfoSize)
				args["info3"] = b.new("info3", kir.I32, mv.InfoSize)
			}
			if b.err != nil {
				return b.err
			}
			for i := range x.Data {
				x.Data[i] = int64(i % 7)
			}
			for i := range y.Data {
				y.Data[i] = int64(i % 5)
			}
			global := int64(0)
			if mode == kir.NDRange {
				global = int64(cfg.N)
			}
			return r.launch(mv.KernelName, global, args)
		}, nil
	}
}

func matMulProgram(s RunSpec, n int) (*kir.Program, func(*Run) error, error) {
	p := kir.NewProgram("matmul")
	mm, err := BuildMatMul(p, MatMulConfig{Size: n, StallMonitor: s.StallMon, Watchpoint: s.Watch, Depth: 256})
	if err != nil {
		return nil, nil, err
	}
	var smIfc, wpIfc *host.Interface
	if mm.SM != nil {
		smIfc = host.BuildInterface(p, mm.SM)
	}
	if mm.WP != nil {
		wpIfc = host.BuildInterface(p, mm.WP)
	}
	return p, func(r *Run) error {
		b := bufs{m: r.M}
		da := b.new("data_a", kir.I32, n*n)
		db := b.new("data_b", kir.I32, n*n)
		dc := b.new("data_c", kir.I32, n*n)
		if b.err != nil {
			return b.err
		}
		for i := range da.Data {
			da.Data[i] = int64(i % 13)
			db.Data[i] = int64(i % 9)
		}
		if smIfc != nil {
			if err := r.attach("stallmon", smIfc, 2); err != nil {
				return err
			}
		}
		if wpIfc != nil {
			if err := r.attach("watch", wpIfc, 1); err != nil {
				return err
			}
		}
		return r.launch(mm.KernelName, 0, sim.Args{"data_a": da, "data_b": db, "data_c": dc})
	}, nil
}

func chaseProgram(s RunSpec, n int) (*kir.Program, func(*Run) error, error) {
	kind, err := s.TimestampKind()
	if err != nil {
		return nil, nil, err
	}
	p := kir.NewProgram("chase")
	ch, err := BuildChase(p, ChaseConfig{Steps: n, Kind: kind})
	if err != nil {
		return nil, nil, err
	}
	return p, func(r *Run) error {
		b := bufs{m: r.M}
		table := b.new("next", kir.I32, 1<<14)
		res := b.new("out", kir.I64, 2)
		if b.err != nil {
			return b.err
		}
		for i := range table.Data {
			table.Data[i] = int64((i*1103 + 331) % len(table.Data))
		}
		return r.launch(ch.KernelName, 0, sim.Args{"next": table, "out": res})
	}, nil
}

func vecAddProgram(s RunSpec, n int) (*kir.Program, func(*Run) error, error) {
	p := kir.NewProgram("vecadd")
	name := BuildVecAdd(p)
	return p, func(r *Run) error {
		b := bufs{m: r.M}
		x := b.new("x", kir.I32, n)
		y := b.new("y", kir.I32, n)
		z := b.new("z", kir.I32, n)
		if b.err != nil {
			return b.err
		}
		for i := 0; i < n; i++ {
			x.Data[i], y.Data[i] = int64(i), int64(2*i)
		}
		return r.launch(name, int64(n), sim.Args{"x": x, "y": y, "z": z})
	}, nil
}

func firProgram(s RunSpec, n int) (*kir.Program, func(*Run) error, error) {
	p := kir.NewProgram("fir")
	f, err := BuildFIR(p, FIRConfig{Taps: 8, N: n, StallMonitor: s.StallMon})
	if err != nil {
		return nil, nil, err
	}
	var smIfc *host.Interface
	if f.SM != nil {
		smIfc = host.BuildInterface(p, f.SM)
	}
	return p, func(r *Run) error {
		b := bufs{m: r.M}
		bx := b.new("x", kir.I32, n)
		bc := b.new("coeff", kir.I32, 8)
		by := b.new("y", kir.I32, n)
		if b.err != nil {
			return b.err
		}
		for i := range bx.Data {
			bx.Data[i] = int64(i%33 - 16)
		}
		for i := range bc.Data {
			bc.Data[i] = int64(8 - i)
		}
		if smIfc != nil {
			if err := r.attach("stallmon", smIfc, 2); err != nil {
				return err
			}
		}
		return r.launch(f.KernelName, 0, sim.Args{"x": bx, "coeff": bc, "y": by})
	}, nil
}

// chanStallProgram is the §5.1 producer/consumer pair (the E9 experiment's
// program) as a fault-injection playground: a fast producer feeds a slow
// consumer through a depth-4 channel named "pipe".
func chanStallProgram(s RunSpec, n int) (*kir.Program, func(*Run) error, error) {
	p := kir.NewProgram("chanstall")
	pipe := p.AddChan("pipe", 4, kir.I32)

	prod := p.AddKernel("producer", kir.SingleTask)
	src := prod.AddGlobal("src", kir.I32)
	pb := prod.NewBuilder()
	pb.ForN("i", int64(n), nil, func(lb *kir.Builder, i kir.Val, _ []kir.Val) []kir.Val {
		lb.ChanWrite(pipe, lb.Load(src, i))
		return nil
	})

	cons := p.AddKernel("consumer", kir.SingleTask)
	dst := cons.AddGlobal("dst", kir.I32)
	cb := cons.NewBuilder()
	cb.ForN("i", int64(n), nil, func(lb *kir.Builder, i kir.Val, _ []kir.Val) []kir.Val {
		v := lb.ChanRead(pipe)
		slow := lb.ForN("j", 2, []kir.Val{v}, func(jb *kir.Builder, j kir.Val, c []kir.Val) []kir.Val {
			return []kir.Val{jb.Div(jb.Add(c[0], jb.Ci32(3)), jb.Ci32(1))}
		})
		lb.Store(dst, i, slow[0])
		return nil
	})
	return p, func(r *Run) error {
		b := bufs{m: r.M}
		bs := b.new("src", kir.I32, n)
		bd := b.new("dst", kir.I32, n)
		if b.err != nil {
			return b.err
		}
		for i := range bs.Data {
			bs.Data[i] = int64(i + 1)
		}
		if err := r.launch("producer", 0, sim.Args{"src": bs}); err != nil {
			return err
		}
		return r.launch("consumer", 0, sim.Args{"dst": bd})
	}, nil
}

// The stall-pipe workload shared by oclmon and simbench: a fast producer
// feeding a slow consumer through a depth-4 channel. The consumer's table
// loads stride by a prime larger than a DRAM row, so nearly every access
// misses, and a second load addressed by the first's result serializes two
// misses per item.
const (
	StallPipeTblElems = 1 << 14 // lookup table (power of two for mask indexing)
	StallPipeStride   = 1031    // prime > one row of i32 elements: every load a row miss
	StallPipeStride2  = 523     // second, dependent stride — a second miss per item
)

// StallPipeMem is the congested-DRAM profile the stall-pipe workload runs
// under: the row activate takes ~200 cycles against the compiler's
// optimistic scheduled latency, so each consumer load opens a long
// quiescent window.
var StallPipeMem = mem.Config{RowHitLat: 60, RowMissLat: 200}

// BuildStallPipe generates the stall-pipe program named name for n items.
// Buffers: src (n), tbl (StallPipeTblElems), dst (n).
func BuildStallPipe(name string, n int) *kir.Program {
	p := kir.NewProgram(name)
	pipe := p.AddChan("pipe", 4, kir.I32)

	prod := p.AddKernel("producer", kir.SingleTask)
	src := prod.AddGlobal("src", kir.I32)
	pb := prod.NewBuilder()
	pb.ForN("i", int64(n), nil, func(lb *kir.Builder, i kir.Val, _ []kir.Val) []kir.Val {
		lb.ChanWrite(pipe, lb.Load(src, i))
		return nil
	})

	cons := p.AddKernel("consumer", kir.SingleTask)
	tbl := cons.AddGlobal("tbl", kir.I32)
	dst := cons.AddGlobal("dst", kir.I32)
	cb := cons.NewBuilder()
	// The carried value feeds the next iteration's load address, so the two
	// row-miss latencies serialize across iterations instead of overlapping
	// in the pipeline — the loop's true II is the memory round-trip.
	cb.ForN("i", int64(n), []kir.Val{cb.Ci32(0)}, func(lb *kir.Builder, i kir.Val, c []kir.Val) []kir.Val {
		v := lb.ChanRead(pipe)
		w := lb.Load(tbl, lb.And(lb.Add(c[0], lb.Mul(i, lb.Ci32(StallPipeStride))), lb.Ci32(StallPipeTblElems-1)))
		w2 := lb.Load(tbl, lb.And(lb.Mul(lb.Add(w, i), lb.Ci32(StallPipeStride2)), lb.Ci32(StallPipeTblElems-1)))
		lb.Store(dst, i, lb.Div(lb.Add(v, w2), lb.Ci32(2)))
		return []kir.Val{w2}
	})
	return p
}

// StageStallPipe fills and launches a compiled stall-pipe machine for n
// items (src counts 1..n, tbl cycles 0..96), returning the producer and
// consumer units.
func StageStallPipe(m *sim.Machine, n int) ([]*sim.Unit, error) {
	b := bufs{m: m}
	src := b.new("src", kir.I32, n)
	tbl := b.new("tbl", kir.I32, StallPipeTblElems)
	dst := b.new("dst", kir.I32, n)
	if b.err != nil {
		return nil, b.err
	}
	for i := range src.Data {
		src.Data[i] = int64(i + 1)
	}
	for i := range tbl.Data {
		tbl.Data[i] = int64(i % 97)
	}
	prod, err := m.Launch("producer", sim.Args{"src": src})
	if err != nil {
		return nil, err
	}
	cons, err := m.Launch("consumer", sim.Args{"tbl": tbl, "dst": dst})
	if err != nil {
		return nil, err
	}
	return []*sim.Unit{prod, cons}, nil
}

func stallPipeProgram(s RunSpec, n int) (*kir.Program, func(*Run) error, error) {
	return BuildStallPipe(s.Workload, n), func(r *Run) (err error) {
		r.Units, err = StageStallPipe(r.M, n)
		return err
	}, nil
}
