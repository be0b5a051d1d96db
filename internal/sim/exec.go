package sim

import (
	"fmt"

	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
)

// flow is one context's position while traversing a region's items.
type flow struct {
	c     *Ctx
	item  int
	stage int
	opPtr int
}

// regionExec drives one XRegion's items for a unit. Loop regions get their
// own regionExec for the body, owned by a loopExec engine (one engine per
// loop — the loop datapath is shared hardware, whoever's iterations flow
// through it).
type regionExec struct {
	u      *Unit
	r      *hls.XRegion
	items  []any // *segExec | *loopExec
	onDone func(*Ctx)
}

func buildRegionExec(u *Unit, r *hls.XRegion, loop *loopExec, defs []slotDef, onDone func(*Ctx)) *regionExec {
	re := &regionExec{u: u, r: r, onDone: onDone}
	for i, it := range r.Items {
		switch it := it.(type) {
		case *hls.Segment:
			re.items = append(re.items, &segExec{u: u, owner: re, seg: it, itemIdx: i, byStage: decodeSeg(u, loop, it, defs)})
		case *hls.XRegion:
			le := &loopExec{u: u, r: it, owner: re, itemIdx: i}
			le.multithread = u.xk.Mode == kir.NDRange
			// the Next-slot forwarding table is identical for every
			// iteration; build it once and share it across contexts
			for k, cc := range it.Carried {
				if cc.NextSlot >= 0 {
					if cc.NextSlot >= len(le.fwdShared) {
						le.fwdShared = append(le.fwdShared, make([][]int, cc.NextSlot+1-len(le.fwdShared))...)
					}
					le.fwdShared[cc.NextSlot] = append(le.fwdShared[cc.NextSlot], k)
				}
			}
			le.body = buildRegionExec(u, it, le, defs, le.iterDone)
			re.items = append(re.items, le)
		}
	}
	return re
}

// enter starts a flow at the region's first item.
func (re *regionExec) enter(f *flow) {
	f.item = -1
	re.moveTo(f, 0)
}

// moveTo advances a flow to item idx (or completes the region).
func (re *regionExec) moveTo(f *flow, idx int) {
	f.item = idx
	if idx >= len(re.items) {
		re.onDone(f.c)
		re.u.freeFlow(f)
		return
	}
	switch it := re.items[idx].(type) {
	case *segExec:
		it.enqueue(f)
	case *loopExec:
		it.addResident(f)
	}
}

// resume unparks a flow after the loop at item idx completes.
func (re *regionExec) resume(idx int, f *flow) { re.moveTo(f, idx+1) }

// canAccept reports whether a new flow may enter the region this cycle: the
// first pipeline stage must be free. A stalled pipeline keeps its stage-0
// slot occupied, backpressuring the issue logic exactly like the synthesized
// hardware's valid/stall handshake.
func (re *regionExec) canAccept() bool {
	if len(re.items) == 0 {
		return true
	}
	if se, ok := re.items[0].(*segExec); ok {
		for _, f := range se.flows {
			if f.stage == 0 {
				return false
			}
		}
	}
	return true
}

func (re *regionExec) tick(now int64) {
	for _, it := range re.items {
		switch it := it.(type) {
		case *segExec:
			it.tick(now)
		case *loopExec:
			it.tick(now)
		}
	}
}

// segExec runs one scheduled segment as a lockstep pipeline: contexts occupy
// stages; a blocked op (memory response pending, full/empty channel) stalls
// every stage, which is what the paper's stall monitors measure.
type segExec struct {
	u       *Unit
	owner   *regionExec
	seg     *hls.Segment
	itemIdx int

	byStage    [][]dop // the segment's decoded ops by stage
	flows      []*flow // oldest (highest stage) first
	stallUntil int64
	// shifts counts pipeline advances. Loop issue spacing is measured in
	// shifts, not cycles: a stall must not compress the stage distance
	// between in-flight iterations or the II guarantee breaks.
	shifts int64
}

func (se *segExec) enqueue(f *flow) {
	f.stage, f.opPtr = 0, 0
	se.flows = append(se.flows, f)
}

func (se *segExec) tick(now int64) {
	if se.stallUntil > now {
		return
	}
	for _, f := range se.flows {
		ops := se.byStage[f.stage]
		i := se.execOps(ops, f.opPtr, f.c, now)
		if i > f.opPtr {
			f.opPtr = i
			se.u.noteProgress()
		}
		if i < len(ops) {
			se.u.noteBlockedOp(ops[i].x, now)
			return
		}
	}
	if se.stallUntil > now {
		return
	}
	// advance the pipeline one stage; retire flows that cleared the segment
	se.shifts++
	advanced := len(se.flows) > 0
	keep := se.flows[:0]
	for _, f := range se.flows {
		f.stage++
		f.opPtr = 0
		if f.stage >= se.seg.Depth {
			se.owner.moveTo(f, f.item+1)
			continue
		}
		keep = append(keep, f)
	}
	se.flows = keep
	// an empty segment "advancing" is not forward progress — counting it
	// would mask a deadlocked design behind idle pipeline stages
	if advanced {
		se.u.noteProgress()
	}
}

// carrState tracks one carried variable's most recent value in a resident's
// iteration chain.
type carrState struct {
	iter    int64 // iteration that produced val (-1 = loop init)
	val     int64
	readyAt int64
	waiting []*Ctx // issued successors awaiting delivery (in-order mode)

	outVal   int64 // final-iteration value, becomes the loop output
	outReady int64
	outSet   bool
}

// resident is one parent context executing the loop (a work-item threading
// through it, or the single-task control flow).
type resident struct {
	id         int
	parentFlow *flow
	// gone marks a resident finish removed; its iteration contexts still
	// point at it and must see it as absent.
	gone bool

	evaluated bool
	start     int64
	step      int64
	total     int64
	infinite  bool

	nextIter int64
	inflight int
	carr     []carrState
}

// loopExec is the shared loop datapath. In-order mode (single-task, autorun)
// issues iterations back to back at the scheduled II — loop-level
// parallelism. Multithread mode (NDRange) issues among resident work-items
// as their carried values resolve — thread-level parallelism. The two modes
// produce exactly the execution orders of the paper's Figure 2(a)/(b).
type loopExec struct {
	u           *Unit
	r           *hls.XRegion
	owner       *regionExec
	itemIdx     int
	body        *regionExec
	multithread bool

	residents      []*resident
	nextResID      int
	lastIssueShift int64
	anyIssue       bool

	// fwdShared is indexed by Next slot: the carried indexes it defines;
	// computed once at build time (identical for every iteration context).
	fwdShared [][]int

	// idle marks the loop at its idle fixpoint for the open fast-forward
	// window; idlePolls lists the channel reads each skipped cycle fails,
	// one entry per read. probe memoizes the idle-iteration evaluation.
	idle      bool
	idlePolls []int
	probe     *idleProbe
}

// bodyShifts reports the body pipeline's shift counter (0 when the body does
// not start with a segment — composite loops issue sequentially anyway).
func (le *loopExec) bodyShifts() int64 {
	if len(le.body.items) > 0 {
		if se, ok := le.body.items[0].(*segExec); ok {
			return se.shifts
		}
	}
	return 0
}

func (le *loopExec) addResident(f *flow) {
	le.residents = append(le.residents, &resident{
		id:         le.nextResID,
		parentFlow: f,
		carr:       make([]carrState, len(le.r.Carried)),
	})
	le.nextResID++
}

// fwdAt lists the carried indexes whose Next value slot s holds.
func (le *loopExec) fwdAt(s int) []int {
	if s >= 0 && s < len(le.fwdShared) {
		return le.fwdShared[s]
	}
	return nil
}

func (le *loopExec) removeResident(r *resident) {
	r.gone = true
	for i, x := range le.residents {
		if x == r {
			le.residents = append(le.residents[:i], le.residents[i+1:]...)
			return
		}
	}
}

// evaluate computes loop bounds once the parent's values are ready.
func (le *loopExec) evaluate(r *resident, now int64) bool {
	pc := r.parentFlow.c
	for _, s := range []int{le.r.StartSlot, le.r.EndSlot, le.r.StepSlot} {
		if pc.readyAt(s) > now {
			return false
		}
	}
	for _, c := range le.r.Carried {
		if pc.readyAt(c.InitSlot) == Future {
			return false
		}
	}
	start, end, step := pc.val(le.r.StartSlot), pc.val(le.r.EndSlot), pc.val(le.r.StepSlot)
	r.start, r.step = start, step
	r.infinite = le.r.Infinite
	if step <= 0 {
		step = 1
		r.step = 1
	}
	if end > start {
		r.total = (end - start + step - 1) / step
	}
	for k, c := range le.r.Carried {
		r.carr[k] = carrState{iter: -1, val: pc.val(c.InitSlot), readyAt: pc.readyAt(c.InitSlot)}
	}
	r.evaluated = true
	return true
}

// finish writes loop outputs into the parent and resumes it.
func (le *loopExec) finish(r *resident) {
	pc := r.parentFlow.c
	for k, c := range le.r.Carried {
		st := &r.carr[k]
		if r.total == 0 {
			pc.write(c.OutSlot, st.val, st.readyAt)
		} else if st.outSet {
			pc.write(c.OutSlot, st.outVal, st.outReady)
		} else {
			// final Next never materialized (should not happen); fall back
			// to the latest value to keep the machine running
			pc.write(c.OutSlot, st.val, st.readyAt)
		}
	}
	f := r.parentFlow
	le.removeResident(r)
	le.owner.resume(le.itemIdx, f)
	le.u.noteProgress()
}

// maxInflight bounds iteration contexts per loop engine; real pipelines are
// bounded by their depth, and the canAccept gate keeps us near that, so this
// is purely a runaway backstop.
const maxInflight = 8192

// eligible reports whether resident r can issue its next iteration now.
func (le *loopExec) eligible(r *resident, now int64) bool {
	if !r.evaluated || (!r.infinite && r.nextIter >= r.total) {
		return false
	}
	if r.inflight >= maxInflight || !le.body.canAccept() {
		return false
	}
	if le.multithread {
		// respect the loop's II in pipeline shifts (conservative: covers
		// per-resident cross-iteration memory ordering)
		if le.anyIssue && le.r.II > 1 && le.bodyShifts()-le.lastIssueShift < int64(le.r.II) {
			return false
		}
		// carried inputs must be resolved before issuing
		for k := range le.r.Carried {
			st := &r.carr[k]
			if st.iter != r.nextIter-1 || st.readyAt > now {
				return false
			}
		}
		return true
	}
	// in-order mode: composite loops run iterations strictly sequentially;
	// leaf loops pipeline at II, measured in pipeline shifts so stalls keep
	// in-flight iterations II stages apart
	if le.r.II == 0 {
		return r.inflight == 0
	}
	return !le.anyIssue || le.bodyShifts()-le.lastIssueShift >= int64(le.r.II)
}

func (le *loopExec) issue(r *resident, now int64) {
	pc := r.parentFlow.c
	c := le.u.childCtx(pc)
	c.owner = le
	c.iter = r.nextIter
	c.res = r

	// induction variable
	if le.r.IndSlot >= 0 {
		c.slots[le.r.IndSlot] = r.start + r.nextIter*r.step
		c.ready[le.r.IndSlot] = now
	}
	// carried phis
	for k, cc := range le.r.Carried {
		st := &r.carr[k]
		if st.iter == r.nextIter-1 {
			c.slots[cc.PhiSlot] = st.val
			c.ready[cc.PhiSlot] = st.readyAt
		} else {
			c.ready[cc.PhiSlot] = Future
			st.waiting = append(st.waiting, c)
		}
	}
	// values already present at issue (Next == phi/init/iv/parent value)
	for k, cc := range le.r.Carried {
		if cc.NextSlot >= 0 && c.readyAt(cc.NextSlot) != Future {
			le.forward(c, k, c.val(cc.NextSlot), c.readyAt(cc.NextSlot))
		}
	}

	r.nextIter++
	r.inflight++
	le.lastIssueShift = le.bodyShifts()
	le.anyIssue = true
	le.body.enter(le.u.newFlow(c))
	le.u.noteProgress()
}

// forwardSlot forwards v, just written to slot s of c, for each carried
// variable whose Next value s holds.
func (le *loopExec) forwardSlot(c *Ctx, s int, v, at int64) {
	for _, k := range le.fwdAt(s) {
		le.forward(c, k, v, at)
	}
}

// forward delivers a produced Next value to the resident's chain, to any
// waiting successor iteration, and captures the loop output on the final
// iteration.
func (le *loopExec) forward(c *Ctx, k int, v, at int64) {
	r := c.res
	if r.gone {
		return
	}
	st := &r.carr[k]
	if c.iter < st.iter {
		return // stale (should not happen; chains advance monotonically)
	}
	st.iter, st.val, st.readyAt = c.iter, v, at
	keep := st.waiting[:0]
	for _, w := range st.waiting {
		if w.iter == c.iter+1 {
			w.write(le.r.Carried[k].PhiSlot, v, at)
			continue
		}
		keep = append(keep, w)
	}
	st.waiting = keep
	if !r.infinite && c.iter == r.total-1 {
		st.outVal, st.outReady, st.outSet = v, at, true
	}
}

// iterDone retires a completed iteration context.
func (le *loopExec) iterDone(c *Ctx) {
	r := c.res
	if r.gone {
		le.u.freeCtx(c)
		return
	}
	r.inflight--
	// a context whose phi slot the body never reads can retire while still
	// queued for carried-value delivery; purge before recycling it
	for k := range r.carr {
		st := &r.carr[k]
		for i := 0; i < len(st.waiting); i++ {
			if st.waiting[i] == c {
				st.waiting = append(st.waiting[:i], st.waiting[i+1:]...)
				i--
			}
		}
	}
	le.u.freeCtx(c)
	if !r.infinite && r.nextIter >= r.total && r.inflight == 0 {
		le.finish(r)
	}
}

func (le *loopExec) tick(now int64) {
	// evaluate new residents and complete trivially-empty loops (indexed
	// loop, not a copied slice: finish() may remove the current resident)
	for i := 0; i < len(le.residents); i++ {
		r := le.residents[i]
		if r.evaluated {
			continue
		}
		if !le.evaluate(r, now) {
			continue
		}
		// an evaluation is a state change the fast-forward scan must not
		// jump over, even though no op executed
		le.u.m.workDone = true
		if !r.infinite && r.total == 0 {
			le.finish(r)
			i--
		}
	}
	// issue at most one iteration per cycle
	var pick *resident
	for _, r := range le.residents {
		if !le.eligible(r, now) {
			continue
		}
		if !le.multithread {
			pick = r
			break // in-order: first (oldest) resident only
		}
		if pick == nil || r.nextIter < pick.nextIter ||
			(r.nextIter == pick.nextIter && r.id < pick.id) {
			pick = r
		}
	}
	if pick != nil {
		le.issue(pick, now)
	}
	le.body.tick(now)
}

func (le *loopExec) String() string {
	return fmt.Sprintf("loop %q (mt=%v, residents=%d)", le.r.Label, le.multithread, len(le.residents))
}
