package sim

import (
	"fmt"

	"oclfpga/internal/channel"
	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
)

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

// dop is one scheduled op decoded for execution. decodeSeg lowers every
// hls.XOp once per machine build: operand slots resolved (an absent operand
// reads the context's zero slot), the readiness checks the schedule does not
// prove listed (see proven), the datapath width turned into a wrap form,
// carried-value forwarding looked up, the channel bound, and one executor
// chosen for the op's kind. The pipeline tick, the idle probe and the
// fast-forward scans all read these, so the op semantics live here once; x
// keeps the source op for diagnostics, observability and intrinsics.
type dop struct {
	// eval computes an ALU op's value from the context's slots (nil for
	// every other kind); run executes every other kind.
	eval func(d *dop, c *Ctx) int64
	run  func(d *dop, se *segExec, c *Ctx, now int64) bool
	// waits are the operand slots whose readiness is checked.
	waits []int32

	guard   int32 // predicate slot, -1 when unguarded
	a, b, s int32 // operand slots (Args[0..2])
	dst, ok int32 // result and ok-flag slots, -1 when absent
	lat     int32
	// guardWait: the guard's readiness is checked. fwd / okFwd: dst / ok
	// holds a carried Next value of the owning loop, so writing it forwards
	// to the successor iteration.
	guardWait, fwd, okFwd bool
	w                     wrap
	k                     int64 // OpConst: the wrapped constant

	ch *channel.Channel
	x  *hls.XOp
}

// wrap is an op's datapath-width truncation decided at decode time: 32 bits
// sign-extend (shift 32), 16 and 8 bits are unsigned (mask), 1 bit
// normalizes to 0/1, anything else passes through.
type wrap struct {
	mask    int64
	shift   uint8
	boolean bool
}

func wrapFor(bits int) wrap {
	switch bits {
	case 32:
		return wrap{shift: 32, mask: -1}
	case 16:
		return wrap{mask: 0xffff}
	case 8:
		return wrap{mask: 0xff}
	case 1:
		return wrap{boolean: true}
	}
	return wrap{mask: -1}
}

func (w wrap) apply(v int64) int64 {
	if w.boolean {
		return b2i(v != 0)
	}
	return v << w.shift >> w.shift & w.mask
}

// decodeSeg lowers a segment's ops into stage-major order (program order
// within a stage) and returns the per-stage views.
func decodeSeg(u *Unit, owner *loopExec, seg *hls.Segment, defs []slotDef) [][]dop {
	first := make([]int, seg.Depth+1)
	nargs := 0
	for _, op := range seg.Ops {
		first[op.Start+1]++
		nargs += len(op.Args)
	}
	for i := 1; i <= seg.Depth; i++ {
		first[i] += first[i-1]
	}
	ops, waits := make([]dop, len(seg.Ops)), make([]int32, nargs)
	byStage := make([][]dop, seg.Depth)
	for st := range byStage {
		byStage[st] = ops[first[st]:first[st]:first[st+1]]
	}
	for i, op := range seg.Ops {
		st := byStage[op.Start]
		byStage[op.Start] = st[:len(st)+1]
		u.decode(&st[:len(st)+1][len(st)], seg, i, owner, defs, waits[:0:len(op.Args)])
		waits = waits[len(op.Args):]
	}
	return byStage
}

// slotDef locates a slot's definitions in the kernel for the readiness
// proof: n counts them, and op is the last, op i of its segment.
type slotDef struct {
	op   *hls.XOp
	i, n int32
}

// kernelDefs indexes every slot's defining ops. A carried phi counts as one
// more definition, by the loop engine (op nil), which delivers it at any
// time, so no proof accepts it.
func kernelDefs(xk *hls.XKernel, nslots int) []slotDef {
	defs := make([]slotDef, nslots)
	def := func(s int, op *hls.XOp, i int) {
		if s >= 0 && s < nslots {
			defs[s] = slotDef{op: op, i: int32(i), n: defs[s].n + 1}
		}
	}
	xk.Root.WalkRegions(func(r *hls.XRegion) {
		for _, cc := range r.Carried {
			def(cc.PhiSlot, nil, 0)
		}
		for _, it := range r.Items {
			if seg, ok := it.(*hls.Segment); ok {
				for i, op := range seg.Ops {
					def(op.Dst, op, i)
					def(op.OkDst, op, i)
				}
			}
		}
	})
	return defs
}

// proven reports whether the schedule guarantees slot s is ready when op i
// of seg runs, so its readiness check can be dropped. It does when the one
// definition of s in the kernel is an earlier, unguarded, fixed-latency op
// (ALU or get_global_id) of the same segment that finishes by the consumer's
// stage (Start+Lat <= consumer.Start): a flow spends at least one cycle per
// stage, so the value is ready whenever the consumer runs. Loads, channel
// reads, calls, intrinsics, carried phis and values from other segments keep
// their checks.
func proven(defs []slotDef, s int, seg *hls.Segment, i int) bool {
	d := defs[s]
	if d.n != 1 || int(d.i) >= i || seg.Ops[d.i] != d.op {
		return false
	}
	def := d.op
	fixed := def.Kind.IsALU() || def.Kind == kir.OpGlobalID
	return fixed && def.Guard < 0 && def.Dst == s && def.Start+def.Lat <= seg.Ops[i].Start
}

// decode lowers op i of seg into the zeroed d, listing the readiness checks
// it keeps in waits.
func (u *Unit) decode(d *dop, seg *hls.Segment, i int, owner *loopExec, defs []slotDef, waits []int32) {
	op := seg.Ops[i]
	arg := func(k int) int32 {
		if k < len(op.Args) && op.Args[k] >= 0 {
			return int32(op.Args[k])
		}
		return int32(u.zero)
	}
	d.x, d.waits, d.w = op, waits, wrapFor(op.Bits)
	d.guard, d.a, d.b, d.s = int32(op.Guard), arg(0), arg(1), arg(2)
	d.dst, d.ok, d.lat = int32(op.Dst), int32(op.OkDst), int32(op.Lat)
	// contexts hold exactly the kernel's slots plus the zero slot, so each
	// slot index is checked here, once, instead of on every access
	top := max(op.Dst, op.OkDst, op.Guard)
	for _, a := range op.Args {
		top = max(top, a)
	}
	if top >= u.zero {
		d.guard, d.dst, d.ok = -1, -1, -1
		d.run = failWith(fmt.Sprintf("op %s names slot %d of a %d-slot kernel", op, top, u.zero))
		return
	}
	d.guardWait = op.Guard >= 0 && !proven(defs, op.Guard, seg, i)
	for _, a := range op.Args {
		if a >= 0 && !proven(defs, a, seg, i) {
			d.waits = append(d.waits, int32(a))
		}
	}
	if owner != nil {
		d.fwd, d.okFwd = owner.fwdAt(op.Dst) != nil, owner.fwdAt(op.OkDst) != nil
	}
	if op.ChID >= 0 && op.ChID < len(u.m.chans) {
		d.ch = u.m.chans[op.ChID]
	}
	if op.Kind.IsALU() {
		d.eval = aluEval(op.Kind)
		d.k = d.w.apply(op.Const)
		if op.Dst < 0 {
			d.eval, d.run = nil, runNop
		}
		return
	}
	switch op.Kind {
	case kir.OpLoad:
		d.run = runLoad
	case kir.OpStore:
		d.run = runStore
	case kir.OpLocalLoad, kir.OpLocalStore:
		switch {
		case op.Local < 0 || op.Local >= len(u.locals):
			d.run = failWith(fmt.Sprintf("local access through unbound local array (%s)", op))
		case op.Kind == kir.OpLocalLoad:
			d.run = runLocalLoad
		default:
			d.run = runLocalStore
		}
	case kir.OpChanRead:
		d.run = runChanRead
	case kir.OpChanWrite:
		d.run = runChanWrite
	case kir.OpChanReadNB:
		d.run = runChanReadNB
	case kir.OpChanWriteNB:
		d.run = runChanWriteNB
	case kir.OpGlobalID:
		d.run = runGlobalID
	case kir.OpCall:
		d.run = runCall
	case kir.OpFence:
		// ordering is enforced by the schedule's channel chain
		d.run = runNop
	case kir.OpIBufLogic:
		switch _, ok := op.IBuf.(Intrinsic); {
		case !ok:
			d.run = failWith("OpIBufLogic payload does not implement sim.Intrinsic")
		case op.StateIdx < 0 || op.StateIdx >= len(u.intrinsicState):
			d.run = failWith(fmt.Sprintf("OpIBufLogic without a lowered StateIdx (%s)", op))
		default:
			d.run = runIntrinsic
		}
	default:
		d.run = failWith("unimplemented op " + op.Kind.String())
	}
}

// execOps executes ops[i:] in order for one context at the current cycle
// and returns the index of the first op that cannot proceed (operand
// pending, blocking channel not ready), which stalls the whole segment
// pipeline, or len(ops) when all completed. The loop is the interpreter's
// whole per-op cost, so it calls nothing for an op but its evaluator or
// executor.
func (se *segExec) execOps(ops []dop, i int, c *Ctx, now int64) int {
ops:
	for ; i < len(ops); i++ {
		d := &ops[i]
		// predication (if-conversion): the guard must be resolved; a false
		// guard skips the op entirely — this is how a predicated blocking
		// channel op avoids blocking, as the host-interface kernel relies on
		if d.guard >= 0 {
			if d.guardWait && c.ready[d.guard] > now {
				break
			}
			if c.slots[d.guard] == 0 {
				continue
			}
		}
		for _, s := range d.waits {
			if c.ready[s] > now {
				break ops
			}
		}
		if d.eval == nil {
			if !d.run(d, se, c, now) {
				break
			}
			continue
		}
		// an ALU op always has a destination (decode gives it eval only then)
		v, at := d.eval(d, c), now+int64(d.lat)
		c.slots[d.dst], c.ready[d.dst] = v, at
		if d.fwd {
			c.owner.forwardSlot(c, int(d.dst), v, at)
		}
	}
	return i
}

// put writes the op's result and forwards it when it is a carried Next.
func (d *dop) put(c *Ctx, v, at int64) {
	c.set(int(d.dst), v, at)
	if d.fwd {
		c.owner.forwardSlot(c, int(d.dst), v, at)
	}
}

// putOK writes the op's ok flag, forwarding like put.
func (d *dop) putOK(c *Ctx, v, at int64) {
	c.set(int(d.ok), v, at)
	if d.okFwd {
		c.owner.forwardSlot(c, int(d.ok), v, at)
	}
}

// aluEval returns the evaluator of an ALU kind. Comparisons yield 0/1
// unwrapped; every other result wraps to the op's width. Division and
// modulo by zero yield 0.
func aluEval(k kir.OpKind) func(d *dop, c *Ctx) int64 {
	return [...]func(*dop, *Ctx) int64{
		kir.OpConst: evalConst, kir.OpAdd: evalAdd, kir.OpSub: evalSub,
		kir.OpMul: evalMul, kir.OpDiv: evalDiv, kir.OpMod: evalMod,
		kir.OpAnd: evalAnd, kir.OpOr: evalOr, kir.OpXor: evalXor,
		kir.OpShl: evalShl, kir.OpShr: evalShr,
		kir.OpCmpLT: evalCmpLT, kir.OpCmpLE: evalCmpLE, kir.OpCmpEQ: evalCmpEQ,
		kir.OpCmpNE: evalCmpNE, kir.OpCmpGT: evalCmpGT, kir.OpCmpGE: evalCmpGE,
		kir.OpSelect: evalSelect,
	}[k]
}

func evalConst(d *dop, _ *Ctx) int64 { return d.k }
func evalAdd(d *dop, c *Ctx) int64   { return d.w.apply(c.slots[d.a] + c.slots[d.b]) }
func evalSub(d *dop, c *Ctx) int64   { return d.w.apply(c.slots[d.a] - c.slots[d.b]) }
func evalMul(d *dop, c *Ctx) int64   { return d.w.apply(c.slots[d.a] * c.slots[d.b]) }
func evalAnd(d *dop, c *Ctx) int64   { return d.w.apply(c.slots[d.a] & c.slots[d.b]) }
func evalOr(d *dop, c *Ctx) int64    { return d.w.apply(c.slots[d.a] | c.slots[d.b]) }
func evalXor(d *dop, c *Ctx) int64   { return d.w.apply(c.slots[d.a] ^ c.slots[d.b]) }
func evalShl(d *dop, c *Ctx) int64   { return d.w.apply(c.slots[d.a] << uint64(c.slots[d.b]&63)) }
func evalShr(d *dop, c *Ctx) int64   { return d.w.apply(c.slots[d.a] >> uint64(c.slots[d.b]&63)) }
func evalCmpLT(d *dop, c *Ctx) int64 { return b2i(c.slots[d.a] < c.slots[d.b]) }
func evalCmpLE(d *dop, c *Ctx) int64 { return b2i(c.slots[d.a] <= c.slots[d.b]) }
func evalCmpEQ(d *dop, c *Ctx) int64 { return b2i(c.slots[d.a] == c.slots[d.b]) }
func evalCmpNE(d *dop, c *Ctx) int64 { return b2i(c.slots[d.a] != c.slots[d.b]) }
func evalCmpGT(d *dop, c *Ctx) int64 { return b2i(c.slots[d.a] > c.slots[d.b]) }
func evalCmpGE(d *dop, c *Ctx) int64 { return b2i(c.slots[d.a] >= c.slots[d.b]) }

func evalDiv(d *dop, c *Ctx) int64 {
	if b := c.slots[d.b]; b != 0 {
		return d.w.apply(c.slots[d.a] / b)
	}
	return 0
}

func evalMod(d *dop, c *Ctx) int64 {
	if b := c.slots[d.b]; b != 0 {
		return d.w.apply(c.slots[d.a] % b)
	}
	return 0
}

func evalSelect(d *dop, c *Ctx) int64 {
	if c.slots[d.a] != 0 {
		return d.w.apply(c.slots[d.b])
	}
	return d.w.apply(c.slots[d.s])
}

func runNop(*dop, *segExec, *Ctx, int64) bool { return true }

func runLoad(d *dop, se *segExec, c *Ctx, now int64) bool {
	lsu := se.u.lsus[d.x.LSU]
	if lsu == nil {
		return se.u.fail("load through unbound LSU (%s)", d.x)
	}
	v, ready := lsu.Load(now, c.slots[d.a])
	d.put(c, d.w.apply(v), ready)
	return true
}

func runStore(d *dop, se *segExec, c *Ctx, now int64) bool {
	lsu := se.u.lsus[d.x.LSU]
	if lsu == nil {
		return se.u.fail("store through unbound LSU (%s)", d.x)
	}
	if ack := lsu.Store(now, c.slots[d.a], c.slots[d.b]); ack > now+1 {
		se.stallUntil = max(se.stallUntil, ack-1)
	}
	return true
}

func runLocalLoad(d *dop, se *segExec, c *Ctx, now int64) bool {
	v, ready := se.u.locals[d.x.Local].Load(now, c.slots[d.a])
	d.put(c, d.w.apply(v), ready)
	return true
}

func runLocalStore(d *dop, se *segExec, c *Ctx, now int64) bool {
	se.u.locals[d.x.Local].Store(now, c.slots[d.a], c.slots[d.b])
	return true
}

func runChanRead(d *dop, se *segExec, c *Ctx, now int64) bool {
	v, ok := d.ch.TryRead()
	if !ok {
		if m := se.u.m; m.obs != nil {
			m.obsChanBlocked(se.u, d.x.ChID, 0, now)
		}
		return false
	}
	d.put(c, d.w.apply(v), now+int64(d.lat))
	return true
}

func runChanWrite(d *dop, se *segExec, c *Ctx, now int64) bool {
	if !d.ch.TryWrite(c.slots[d.a]) {
		if m := se.u.m; m.obs != nil {
			m.obsChanBlocked(se.u, d.x.ChID, 1, now)
		}
		return false
	}
	return true
}

func runChanReadNB(d *dop, _ *segExec, c *Ctx, now int64) bool {
	v, ok := d.ch.TryRead()
	d.put(c, d.w.apply(v), now+int64(d.lat))
	d.putOK(c, b2i(ok), now+int64(d.lat))
	return true
}

func runChanWriteNB(d *dop, _ *segExec, c *Ctx, now int64) bool {
	d.putOK(c, b2i(d.ch.WriteNB(c.slots[d.a])), now+int64(d.lat))
	return true
}

func runGlobalID(d *dop, _ *segExec, c *Ctx, now int64) bool {
	d.put(c, c.wiID, now)
	return true
}

func runCall(d *dop, se *segExec, c *Ctx, now int64) bool {
	var v int64
	if d.x.Lib.Synth != nil {
		// the args scratch is reused across calls: library semantics must
		// not retain it
		u := se.u
		u.callArgs = u.callArgs[:0]
		for _, a := range d.x.Args {
			u.callArgs = append(u.callArgs, c.val(a))
		}
		v = d.x.Lib.Synth(now, u.callArgs)
	}
	d.put(c, v, now+int64(d.lat))
	return true
}

func runIntrinsic(d *dop, se *segExec, c *Ctx, now int64) bool {
	u := se.u
	ok := d.x.IBuf.(Intrinsic).Exec(u.intrinsicEnv(c, d.x, now))
	u.ienv.C, u.ienv.Op, u.ienv.State = nil, nil, nil
	return ok
}

// failWith returns an executor that records msg as the machine's error when
// the op is reached: a malformed op fails the run where it executes, not at
// build time.
func failWith(msg string) func(*dop, *segExec, *Ctx, int64) bool {
	return func(_ *dop, se *segExec, _ *Ctx, _ int64) bool { return se.u.fail("%s", msg) }
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

func (u *Unit) fail(format string, args ...any) bool {
	if u.m.err == nil {
		u.m.err = fmt.Errorf("sim: unit %s: %s", u.xk.UnitName(), fmt.Sprintf(format, args...))
	}
	return false
}
