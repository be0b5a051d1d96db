package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
)

// The reference interpreter: the per-cycle op interpreter the decoded ops
// (op.go) replaced, kept verbatim as the oracle of
// TestDecodedOpMatchesReference. It lives only in this test file.

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
func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// CheckDecodedOps runs every op of every kernel of d through the decoded
// executor and through the reference interpreter, trials times each, on
// twin units of twin machines. Each trial draws slot values and ready
// times (an operand whose check the schedule proves, and so was dropped at
// decode, is drawn ready, as every run guarantees), a guard that is true,
// false or pending, a stall window, and channel contents. Both sides must
// agree on the return value, every slot and ready time, stallUntil, the
// carried-value forwarding into the loop's resident, the machine error and
// the op's channel. It returns the first divergence, and adds to done, per
// op kind, the trials in which the op completed.
func CheckDecodedOps(d *hls.Design, seed int64, trials int, done map[kir.OpKind]int) error {
	rng := rand.New(rand.NewSource(seed))
	for _, xk := range d.Kernels {
		ref, dec := newDiffUnit(d, xk), newDiffUnit(d, xk)
		var err error
		walkSegPairs(ref.top, dec.top, nil, nil, func(seR, seD *segExec, leR, leD *loopExec) {
			for st := range seD.byStage {
				for i := range seD.byStage[st] {
					for t := 0; t < trials && err == nil; t++ {
						var ok bool
						ok, err = diffOp(rng, t, ref, dec, seR, seD, leR, leD, seD.byStage[st][i:i+1])
						if ok {
							done[seD.byStage[st][i].x.Kind]++
						}
					}
				}
			}
		})
		if err != nil {
			return fmt.Errorf("kernel %s: %w", xk.UnitName(), err)
		}
	}
	return nil
}

// newDiffUnit builds a unit for xk on a fresh machine, every LSU bound to
// a 64-element buffer of wide values and every local memory filled alike.
func newDiffUnit(d *hls.Design, xk *hls.XKernel) *Unit {
	m := New(d, Options{})
	u := m.newUnit(xk)
	rng := rand.New(rand.NewSource(1))
	for i, site := range xk.LSUs {
		b := m.bufs[site.Arr.Name]
		if b == nil {
			b, _ = m.NewBuffer(site.Arr.Name, kir.I64, 64)
			for j := range b.Data {
				b.Data[j] = diffValue(rng)
			}
		}
		u.lsus[i] = m.Mem.NewLSU(site.Kind, b)
	}
	for _, l := range u.locals {
		for j := range l.Data {
			l.Data[j] = diffValue(rng)
		}
	}
	return u
}

// walkSegPairs visits the matching segments of two units built from one
// kernel, with the loop each belongs to (nil at the top).
func walkSegPairs(a, b *regionExec, la, lb *loopExec, fn func(sa, sb *segExec, la, lb *loopExec)) {
	for i := range a.items {
		switch ia := a.items[i].(type) {
		case *segExec:
			fn(ia, b.items[i].(*segExec), la, lb)
		case *loopExec:
			ib := b.items[i].(*loopExec)
			walkSegPairs(ia.body, ib.body, ia, ib, fn)
		}
	}
}

// diffValue draws a slot value: small indexes, width boundaries, or wide
// random values that exercise truncation.
func diffValue(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return int64(rng.Intn(80) - 8)
	case 1:
		edges := []int64{0, 1, 2, -1, 0xff, 0x100, 0xffff, 0x10000, 1<<31 - 1, 1 << 31, -1 << 31, 1<<63 - 1, -1 << 63}
		return edges[rng.Intn(len(edges))]
	default:
		return rng.Int63() - rng.Int63()
	}
}

// diffOp runs the one decoded op in one, and its source op, on a fresh
// random state.
func diffOp(rng *rand.Rand, trial int, ref, dec *Unit, seR, seD *segExec, leR, leD *loopExec, one []dop) (bool, error) {
	d := &one[0]
	op := d.x
	now := int64(1000 + rng.Intn(100))
	n := dec.zero + 1
	slots, ready := make([]int64, n), make([]int64, n)
	for s := 0; s < dec.zero; s++ {
		slots[s] = diffValue(rng)
		switch rng.Intn(5) {
		case 0:
			ready[s] = now + 1 + int64(rng.Intn(5))
		case 1:
			ready[s] = Future
		default:
			ready[s] = now - int64(rng.Intn(4))
		}
	}
	ready[dec.zero] = Future
	// the schedule's guarantee for every check decode dropped
	for _, a := range op.Args {
		if a >= 0 && !slices.Contains(d.waits, int32(a)) {
			ready[a] = now - int64(rng.Intn(4))
		}
	}
	if g := op.Guard; g >= 0 {
		switch trial % 3 {
		case 0: // true
			ready[g] = now
			if slots[g] == 0 {
				slots[g] = 1
			}
		case 1: // false
			ready[g], slots[g] = now, 0
		case 2: // pending, unless the schedule proves it resolved
			ready[g] = now + 1
			if !d.guardWait {
				ready[g] = now
			}
		}
	}
	iter := int64(rng.Intn(4))
	stall := now - 1 + int64(rng.Intn(3))
	var total int64 = int64(1 + rng.Intn(4))
	newCtx := func(le *loopExec) (*Ctx, *resident) {
		c := &Ctx{slots: slices.Clone(slots), ready: slices.Clone(ready), iter: iter, wiID: iter + 3}
		if le == nil {
			return c, nil
		}
		r := &resident{total: total, carr: make([]carrState, len(le.r.Carried))}
		for k := range r.carr {
			r.carr[k].iter = -1
		}
		c.owner, c.res = le, r
		return c, r
	}
	cR, rR := newCtx(leR)
	cD, rD := newCtx(leD)
	seR.stallUntil, seD.stallUntil = stall, stall
	var chR, chD interface {
		Len() int
		TryWrite(int64) bool
		EndCycle()
	}
	if op.ChID >= 0 {
		chR, chD = ref.m.chans[op.ChID], dec.m.chans[op.ChID]
		if rng.Intn(2) == 0 {
			v := diffValue(rng)
			chR.TryWrite(v)
			chD.TryWrite(v)
			chR.EndCycle()
			chD.EndCycle()
		}
	}

	okR := ref.execOp(cR, op, now, seR)
	okD := seD.execOps(one, 0, cD, now) == 1

	where := fmt.Sprintf("op %s (trial %d)", op, trial)
	switch {
	case okR != okD:
		return false, fmt.Errorf("%s: reference returned %v, decoded %v", where, okR, okD)
	case !slices.Equal(cR.slots, cD.slots):
		return false, fmt.Errorf("%s: slots differ:\nreference %v\ndecoded   %v", where, cR.slots, cD.slots)
	case !slices.Equal(cR.ready, cD.ready):
		return false, fmt.Errorf("%s: ready times differ:\nreference %v\ndecoded   %v", where, cR.ready, cD.ready)
	case seR.stallUntil != seD.stallUntil:
		return false, fmt.Errorf("%s: stallUntil %d vs %d", where, seR.stallUntil, seD.stallUntil)
	case fmt.Sprint(ref.m.err) != fmt.Sprint(dec.m.err):
		return false, fmt.Errorf("%s: machine error %v vs %v", where, ref.m.err, dec.m.err)
	}
	if rR != nil {
		for k := range rR.carr {
			a, b := rR.carr[k], rD.carr[k]
			if a.iter != b.iter || a.val != b.val || a.readyAt != b.readyAt || a.outSet != b.outSet || a.outVal != b.outVal {
				return false, fmt.Errorf("%s: carried %d forwarded %+v vs %+v", where, k, a, b)
			}
		}
	}
	if chR != nil {
		chR.EndCycle()
		chD.EndCycle()
		if chR.Len() != chD.Len() || ref.m.chans[op.ChID].Stats() != dec.m.chans[op.ChID].Stats() {
			return false, fmt.Errorf("%s: channel %d state differs", where, op.ChID)
		}
	}
	return okR && (op.Guard < 0 || cR.val(op.Guard) != 0), nil
}
