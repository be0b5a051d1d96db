package core

import (
	"fmt"

	"oclfpga/internal/kir"
	"oclfpga/internal/primitives"
	"oclfpga/internal/sim"
)

// BuildHDL generates an ibuffer bank whose logic-function block is a single
// HDL library block (an OpIBufLogic intrinsic) instead of OpenCL-coded
// logic. This is the design point the paper's related work occupies —
// debugging infrastructure as opaque RTL — and the ablation partner for the
// paper's claim of being "entirely coded in high-level programming
// languages": same channels, same command protocol, same trace format, but
// the state machine is a black box the OpenCL compiler cannot see into.
//
// The returned bank is interface-compatible with Build's: the same host
// interface and controller drive it.
func BuildHDL(p *kir.Program, cfg Config) (*IBuffer, error) {
	cfg.fill()
	if cfg.N < 1 || cfg.Depth < 1 {
		return nil, fmt.Errorf("core: bad config %+v", cfg)
	}
	if cfg.Func == BoundCheck && cfg.BoundHi <= cfg.BoundLo {
		return nil, fmt.Errorf("core: bound check needs BoundLo < BoundHi")
	}
	timer := cfg.Timer
	if timer == nil {
		if timer = p.LibByName("get_time"); timer == nil {
			timer = primitives.AddHDLTimer(p)
		}
	}

	ib := &IBuffer{
		Config: cfg,
		Cmd:    p.AddChanArray(cfg.Name+"_cmd_c", cfg.N, 2, kir.I32),
		Data:   p.AddChanArray(cfg.Name+"_data_in", cfg.N, cfg.DataDepth, kir.I64),
		OutT:   p.AddChanArray(cfg.Name+"_out_t_c", cfg.N, 2, kir.I64),
		OutD:   p.AddChanArray(cfg.Name+"_out_d_c", cfg.N, 2, kir.I64),
		Timer:  timer,
	}
	if cfg.Func.NeedsAddrChannel() {
		ib.Addr = p.AddChanArray(cfg.Name+"_addr_in_c", cfg.N, 2, kir.I64)
	}

	k := p.AddKernel(cfg.Name, kir.Autorun)
	k.Role = kir.RoleIBuffer
	k.Tag = string(funcAreaTag(cfg.Func))
	k.NumComputeUnits = cfg.N
	ib.Kernel = k
	k.AddLocal("trace_t", kir.I64, cfg.Depth)
	k.AddLocal("trace_d", kir.I64, cfg.Depth)

	logic := &hdlLogic{cfg: cfg, ib: ib}
	b := k.NewBuilder()
	b.Forever(nil, func(lb *kir.Builder, _ kir.Val, _ []kir.Val) []kir.Val {
		lb.IBufLogic(logic)
		return nil
	})
	return ib, nil
}

// hdlLogic is the native (HDL-block) implementation of the ibuffer state
// machine, executed once per pipeline iteration via the intrinsic hook.
type hdlLogic struct {
	cfg Config
	ib  *IBuffer
}

// hdlState is the per-instance register file of the block.
type hdlState struct {
	state   int64
	cyclic  bool
	wptr    int64
	rptr    int64
	watch   int64
	last    int64
	wrapped bool
}

// Exec implements sim.Intrinsic: one cycle of the block.
func (l *hdlLogic) Exec(env *sim.IntrinsicEnv) bool {
	st, _ := (*env.State).(*hdlState)
	if st == nil {
		st = &hdlState{state: StStop, watch: -1}
		*env.State = st
	}
	cu := env.U.Kernel().CU
	depth := int64(l.cfg.Depth)
	traceT := env.U.Local(0)
	traceD := env.U.Local(1)

	// read state: gate on output-channel space before consuming anything so
	// a stalled cycle is side-effect free (the block simply retries)
	if st.state == StRead {
		outT, outD := env.Chan(l.ib.OutT[cu].ID), env.Chan(l.ib.OutD[cu].ID)
		if !outT.CanWrite() || !outD.CanWrite() {
			return false
		}
		tt, dd := traceT.Data[st.rptr], traceD.Data[st.rptr]
		valid := st.rptr < st.wptr || (st.cyclic && st.wrapped)
		if l.cfg.Func == Histogram {
			valid = st.wrapped
		}
		if !valid {
			tt, dd = 0, 0
		}
		outT.TryWrite(tt)
		outD.TryWrite(dd)
		st.rptr++
		if st.rptr >= depth {
			st.rptr = 0
			st.state = StStop
		}
		// commands still land while draining
		if cmd, ok := env.Chan(l.ib.Cmd[cu].ID).TryRead(); ok {
			l.command(st, cmd)
		}
		return true
	}

	if cmd, ok := env.Chan(l.ib.Cmd[cu].ID).TryRead(); ok {
		l.command(st, cmd)
	}
	if st.state == StReset {
		st.wptr, st.rptr, st.last, st.wrapped = 0, 0, 0, false
		st.state = StSample
	}
	if len(l.ib.Addr) > 0 {
		if wa, ok := env.Chan(l.ib.Addr[cu].ID).TryRead(); ok {
			st.watch = wa
		}
	}

	din, dvalid := env.Chan(l.ib.Data[cu].ID).TryRead()
	if !dvalid || st.state != StSample {
		return true
	}
	t := env.Now

	accept, payload := false, din
	switch l.cfg.Func {
	case Record, StallMonitor:
		accept = true
	case LatencyPair, Histogram:
		accept = true
		payload = t - st.last
		st.last = t
	case Watchpoint:
		accept = din>>TagBits == st.watch
	case BoundCheck:
		addr := din >> TagBits
		accept = addr < l.cfg.BoundLo || addr >= l.cfg.BoundHi
	case InvarianceCheck:
		addr, tag := UnpackAddrTag(din)
		if addr == st.watch {
			accept = tag != st.last
			st.last = tag
		}
	}
	if !accept {
		return true
	}

	if l.cfg.Func == Histogram {
		bucket := payload
		if bucket >= depth {
			bucket = depth - 1
		}
		if bucket < 0 {
			bucket = 0
		}
		traceD.Data[bucket]++
		traceT.Data[bucket] = t
		st.wrapped = true
		return true
	}
	if !st.cyclic && st.wptr >= depth {
		st.state = StStop // linear: full
		return true
	}
	slot := st.wptr
	if slot >= depth {
		slot = 0
	}
	traceT.Data[slot] = t
	traceD.Data[slot] = payload
	st.wptr = slot + 1
	if st.wptr >= depth {
		if st.cyclic {
			st.wptr = 0
			st.wrapped = true
		} else {
			st.state = StStop
		}
	}
	return true
}

// Idle implements sim.Idler. Outside the read and reset states, with its
// command, address and data channels empty, a cycle of the block fails those
// three reads and changes nothing else.
func (l *hdlLogic) Idle(env *sim.IntrinsicEnv, polls []int) ([]int, bool) {
	st, _ := (*env.State).(*hdlState)
	if st == nil || st.state == StRead || st.state == StReset {
		return polls, false
	}
	cu := env.U.Kernel().CU
	polls = append(polls, l.ib.Cmd[cu].ID)
	if len(l.ib.Addr) > 0 {
		polls = append(polls, l.ib.Addr[cu].ID)
	}
	return append(polls, l.ib.Data[cu].ID), true
}

func (l *hdlLogic) command(st *hdlState, cmd int64) {
	switch cmd {
	case CmdReset:
		st.state = StReset
	case CmdSampleLinear:
		st.state = StSample
		st.cyclic = false
	case CmdSampleCyclic:
		st.state = StSample
		st.cyclic = true
	case CmdStop:
		st.state = StStop
	case CmdRead:
		st.state = StRead
	}
}
