package sim

import (
	"fmt"

	"oclfpga/internal/channel"
	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
)

// truncBits wraps v to the op's datapath width, mirroring kir.Type widths
// (32/64 signed, 16/8 unsigned, 1 boolean).
func truncBits(v int64, bits int) int64 {
	switch bits {
	case 64, 0:
		return v
	case 32:
		return int64(int32(v))
	case 16:
		return int64(uint16(v))
	case 8:
		return int64(uint8(v))
	case 1:
		if v != 0 {
			return 1
		}
		return 0
	}
	return v
}

// Intrinsic is the interface an OpIBufLogic payload implements to execute
// inside the pipeline (the HDL-library escape hatch; the reference ibuffer
// is plain IR and does not need it). Exec returns false to stall.
type Intrinsic interface {
	Exec(env *IntrinsicEnv) bool
}

// Idler is an optional extension of Intrinsic for the idle-fixpoint
// fast-forward rule (see fastforward.go). Idle reports whether Exec at env,
// with every channel it polls empty, would complete while changing nothing
// but those channels' read-stall counters. When it would, Idle appends the
// polled channel ids to polls, one entry per failed read, and returns the
// extended slice; the caller checks that they are empty. Idle must not
// change any state.
type Idler interface {
	Idle(env *IntrinsicEnv, polls []int) ([]int, bool)
}

// IntrinsicEnv is the machine access an intrinsic gets.
type IntrinsicEnv struct {
	M     *Machine
	U     *Unit
	C     *Ctx
	Op    *hls.XOp
	Now   int64
	State *any // per-(unit, op) persistent state cell
}

// Chan gives the intrinsic direct access to a channel endpoint by program
// channel id — the HDL block's ports.
func (e *IntrinsicEnv) Chan(id int) *channel.Channel { return e.M.chans[id] }

// execOp executes one op for one context at the current cycle. It returns
// false when the op cannot proceed (operand pending, blocking channel not
// ready), which stalls the whole segment pipeline.
func (u *Unit) execOp(c *Ctx, op *hls.XOp, now int64, se *segExec) bool {
	// predication (if-conversion): guard must be resolved; a false guard
	// skips the op entirely — this is how a predicated blocking channel op
	// avoids blocking, as the host-interface kernel relies on.
	if op.Guard >= 0 {
		if c.readyAt(op.Guard) > now {
			return false
		}
		if c.val(op.Guard) == 0 {
			return true
		}
	}
	// operands must be available (static schedule guarantees this except
	// for runtime-variable producers: memory and channels)
	for _, a := range op.Args {
		if a >= 0 && c.readyAt(a) > now {
			return false
		}
	}

	done := now + int64(op.Lat)

	if op.Kind.IsALU() {
		c.write(op.Dst, alu(op, c), done)
		return true
	}
	switch op.Kind {
	case kir.OpLoad:
		lsu := u.lsus[op.LSU]
		if lsu == nil {
			return u.fail("load through unbound LSU (%s)", op)
		}
		v, ready := lsu.Load(now, c.val(op.Args[0]))
		c.write(op.Dst, truncBits(v, op.Bits), ready)
	case kir.OpStore:
		lsu := u.lsus[op.LSU]
		if lsu == nil {
			return u.fail("store through unbound LSU (%s)", op)
		}
		ack := lsu.Store(now, c.val(op.Args[0]), c.val(op.Args[1]))
		if ack > now+1 {
			se.stallUntil = maxi64(se.stallUntil, ack-1)
		}
	case kir.OpLocalLoad:
		lm := u.locals[op.Local]
		v, ready := lm.Load(now, c.val(op.Args[0]))
		c.write(op.Dst, truncBits(v, op.Bits), ready)
	case kir.OpLocalStore:
		lm := u.locals[op.Local]
		lm.Store(now, c.val(op.Args[0]), c.val(op.Args[1]))

	case kir.OpChanRead:
		ch := u.m.chans[op.ChID]
		v, ok := ch.TryRead()
		if !ok {
			if u.m.obs != nil {
				u.m.obsChanBlocked(u, op.ChID, 0, now)
			}
			return false
		}
		c.write(op.Dst, truncBits(v, op.Bits), done)
	case kir.OpChanWrite:
		ch := u.m.chans[op.ChID]
		if !ch.TryWrite(c.val(op.Args[0])) {
			if u.m.obs != nil {
				u.m.obsChanBlocked(u, op.ChID, 1, now)
			}
			return false
		}
	case kir.OpChanReadNB:
		ch := u.m.chans[op.ChID]
		v, ok := ch.TryRead()
		c.write(op.Dst, truncBits(v, op.Bits), done)
		c.write(op.OkDst, b2i(ok), done)
	case kir.OpChanWriteNB:
		ch := u.m.chans[op.ChID]
		ok := ch.WriteNB(c.val(op.Args[0]))
		c.write(op.OkDst, b2i(ok), done)

	case kir.OpGlobalID:
		c.write(op.Dst, c.wiID, now)
	case kir.OpCall:
		var v int64
		if op.Lib.Synth != nil {
			// the args scratch is reused across calls: library semantics
			// must not retain it
			u.callArgs = u.callArgs[:0]
			for _, a := range op.Args {
				u.callArgs = append(u.callArgs, c.val(a))
			}
			v = op.Lib.Synth(now, u.callArgs)
		}
		c.write(op.Dst, v, done)
	case kir.OpFence:
		// ordering is enforced by the schedule's channel chain
	case kir.OpIBufLogic:
		in, ok := op.IBuf.(Intrinsic)
		if !ok {
			return u.fail("OpIBufLogic payload does not implement sim.Intrinsic")
		}
		if op.StateIdx < 0 || op.StateIdx >= len(u.intrinsicState) {
			return u.fail("OpIBufLogic without a lowered StateIdx (%s)", op)
		}
		ok = in.Exec(u.intrinsicEnv(c, op, now))
		u.ienv.C, u.ienv.Op, u.ienv.State = nil, nil, nil
		if !ok {
			return false
		}
	default:
		return u.fail("unimplemented op %s", op.Kind)
	}
	return true
}

// alu evaluates an arithmetic, logic, compare or select op on c's slot
// values, wrapped to the op's datapath width. Operands are indexed directly
// so the hot path allocates no closure.
func alu(op *hls.XOp, c *Ctx) int64 {
	switch op.Kind {
	case kir.OpConst:
		return truncBits(op.Const, op.Bits)
	case kir.OpSelect:
		v := c.val(op.Args[2])
		if c.val(op.Args[0]) != 0 {
			v = c.val(op.Args[1])
		}
		return truncBits(v, op.Bits)
	}
	a, b := c.val(op.Args[0]), c.val(op.Args[1])
	var v int64
	switch op.Kind {
	case kir.OpAdd:
		v = a + b
	case kir.OpSub:
		v = a - b
	case kir.OpMul:
		v = a * b
	case kir.OpDiv:
		if b != 0 {
			v = a / b
		}
	case kir.OpMod:
		if b != 0 {
			v = a % b
		}
	case kir.OpAnd:
		v = a & b
	case kir.OpOr:
		v = a | b
	case kir.OpXor:
		v = a ^ b
	case kir.OpShl:
		v = a << uint64(b&63)
	case kir.OpShr:
		v = a >> uint64(b&63)
	case kir.OpCmpLT:
		return b2i(a < b)
	case kir.OpCmpLE:
		return b2i(a <= b)
	case kir.OpCmpEQ:
		return b2i(a == b)
	case kir.OpCmpNE:
		return b2i(a != b)
	case kir.OpCmpGT:
		return b2i(a > b)
	case kir.OpCmpGE:
		return b2i(a >= b)
	}
	return truncBits(v, op.Bits)
}

// intrinsicEnv fills the unit's reused intrinsic environment for op (an
// intrinsic must not retain it); state lives in a dense per-unit slice
// indexed by the op's StateIdx.
func (u *Unit) intrinsicEnv(c *Ctx, op *hls.XOp, now int64) *IntrinsicEnv {
	env := &u.ienv
	env.M, env.U, env.C, env.Op, env.Now = u.m, u, c, op, now
	env.State = &u.intrinsicState[op.StateIdx]
	return env
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (u *Unit) fail(format string, args ...any) bool {
	if u.m.err == nil {
		u.m.err = fmt.Errorf("sim: unit %s: %s", u.xk.UnitName(), fmt.Sprintf(format, args...))
	}
	return false
}
