package sim

import (
	"slices"
	"sync/atomic"

	"oclfpga/internal/channel"
	"oclfpga/internal/fault"
	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
)

// Fast-forward: event-driven skipping of quiescent cycles.
//
// A tick that ends with m.workDone == false made no state change beyond three
// batch-replayable effects: empty segments incrementing their shift counters,
// blocked channel ops incrementing the channel's stall statistics, and
// blocked-op bookkeeping refreshing blockState.last. While the machine stays
// in that state, every future tick is byte-for-byte predictable, so the drive
// loop can jump the clock to the earliest cycle anything could change — a
// memory response maturing, a stall window expiring, II pacing being
// satisfied, a delayed launch starting, or a fault event switching on or off
// — and replay the skipped cycles' counter effects in O(blocked ops) instead
// of O(cycles × fabric).
//
// The wake computation is deliberately conservative in one direction only:
// it may UNDER-estimate the next wake (costing an extra real tick), never
// over-estimate it (which would change observable behaviour). Channel-blocked
// ops report "no timed wake" — only a counterpart's transfer can unblock
// them, and every transfer makes its tick non-quiescent.
// Opaque blockages (intrinsic logic) report now+1, disabling skipping.
//
// Idle-fixpoint rule. Autorun polling loops (the paper's ibuffers) issue an
// iteration every cycle; counting each one as work would keep any
// instrumented design from skipping a cycle. An infinite, in-order,
// II=1 autorun loop is quiescent, with no timed wake, when every iteration
// in flight and every iteration it will issue is idle: its non-blocking
// reads fail on empty channels, it executes no memory access and no channel
// write, and it hands on its carried values unchanged. Such a cycle differs
// from the one before only in iteration numbers, the body's shift counter,
// the read-stall counters of the polled channels, and values the compiler's
// taint analysis proves dead (hls.XRegion.IdleFixpoint: time stamps and the
// induction variable). batchAdvance replays exactly those (replayIdle). As
// for blocked channel ops, only another unit's write can fill a polled
// channel, and that write makes its tick non-quiescent. So does any transfer
// by the loop itself (Machine.tick marks every tick that touched a channel),
// so a window never opens past a counterpart the loop just unblocked.
//
// The check (autorunIdle) runs only after a tick in which nothing else made
// progress. A fresh iteration is evaluated once on a scratch context and
// memoized on the carried values; the HDL ibuffer's opaque block answers
// through the Idler interface. Loops that carry a timestamp (LatencyPair,
// the II>1 Histogram) fail the taint analysis and keep stepping, and so does
// the persistent-timer kernel (Listing 1), which writes its channel every
// cycle and is therefore never idle.

// wakeInf means "no timed wake-up: only another unit's progress (or a fault
// boundary, accounted separately) can change this item's state".
const wakeInf = int64(1<<62 - 1)

// ffDisabled force-disables fast-forward process-wide; the equivalence tests
// use it to drive the slow path through public entry points.
var ffDisabled atomic.Bool

// SetFastForwardDisabled force-disables (or re-enables) quiescent-cycle
// skipping for every machine in the process. Intended for tests and A/B
// debugging; fast-forward is semantics-preserving, so normal users never
// need it.
func SetFastForwardDisabled(v bool) { ffDisabled.Store(v) }

// FastForwardStats summarizes the machine's quiescent-cycle skipping: how
// many jumps it has taken and how many cycles they skipped. Skipped cycles
// still "happened" — counters, stall statistics, and the cycle clock all
// read as if each one was stepped. The JSON tags make the struct one of the
// machine-readable report payloads (DESIGN.md §9).
type FastForwardStats struct {
	Jumps   int64 `json:"jumps"`
	Skipped int64 `json:"skipped"`
}

// FastForwardStats reports the accumulated jump statistics.
func (m *Machine) FastForwardStats() FastForwardStats {
	return FastForwardStats{Jumps: m.ffJumps, Skipped: m.ffSkipped}
}

// fastForwardOK reports whether skipping is currently allowed: it is off
// when the options or the process-wide switch disable it, and whenever cycle
// hooks (the VCD recorder) are attached — hooks observe every cycle by
// contract, so their presence forces per-cycle stepping.
func (m *Machine) fastForwardOK() bool {
	return !m.opts.DisableFastForward && len(m.cycleHooks) == 0 && !ffDisabled.Load()
}

// ffWindow is an open fast-forward jump over the quiescent cycles (from, end],
// batch-advanced so far through (from, m.cycle]. A caller's stop inside it (a
// RunFor budget, a capture, a break deadline) only pauses the advance, and the
// jump is recorded once, when it ends: RunFor(a); RunFor(b) records exactly
// what one Run records.
type ffWindow struct {
	from, end int64
	open      bool
}

// openWindow is called after a quiescent tick at m.cycle. It opens the window
// up to just before the next wake, capped at the run deadlines (stall limit,
// max cycles) so the tick that trips one executes for real and the resulting
// report carries exactly the state the slow path would have produced.
func (m *Machine) openWindow() {
	end := m.nextWake() - 1
	if lim := m.lastProgress + m.opts.StallLimit; len(m.active) > 0 && end > lim {
		end = lim
	}
	if end > m.opts.MaxCycles {
		end = m.opts.MaxCycles
	}
	if end > m.cycle {
		m.win = ffWindow{from: m.cycle, end: end, open: true}
	}
}

// advanceWindow batch-advances the open window to cycle to (m.cycle < to <=
// end) and closes it when to is its end. Metrics samples and rewind
// checkpoints due on the way are taken mid-jump: the batch advance splits at
// each grid cycle, and — because batchAdvance charges exactly the counter
// effects per-cycle stepping would have, and nothing else changes while the
// machine is quiescent — the snapshot at each split point is byte-identical
// to the one a real tick stopping there would record. The two grids are
// merged by walking to the nearest upcoming cycle of either; a cycle on both
// fires sample first, then checkpoint, matching obsEndTick.
func (m *Machine) advanceWindow(to int64) {
	if o := m.obs; o != nil && (o.sampleEvery > 0 || o.ckptEvery > 0) {
		for {
			next := to + 1
			if o.sampleEvery > 0 {
				if s := (m.cycle/o.sampleEvery + 1) * o.sampleEvery; s < next {
					next = s
				}
			}
			if o.ckptEvery > 0 {
				if c := (m.cycle/o.ckptEvery + 1) * o.ckptEvery; c < next {
					next = c
				}
			}
			if next > to {
				break
			}
			m.batchAdvance(m.cycle, next)
			m.cycle = next
			if o.sampleEvery > 0 && next%o.sampleEvery == 0 {
				m.obsTakeSample()
			}
			if o.ckptEvery > 0 && next%o.ckptEvery == 0 {
				m.obsCheckpoint()
			}
		}
		if o.sampleEvery > 0 {
			o.nextSampleAt = (to/o.sampleEvery + 1) * o.sampleEvery
		}
		if o.ckptEvery > 0 {
			o.nextCkptAt = (to/o.ckptEvery + 1) * o.ckptEvery
		}
	}
	if to > m.cycle {
		m.batchAdvance(m.cycle, to)
	}
	m.cycle = to
	if to == m.win.end {
		m.closeWindow()
	}
}

// closeWindow records the open window as one jump over the cycles advanced
// so far: at its end, or at m.cycle when finalize, Launch or Step touch a
// paused machine.
func (m *Machine) closeWindow() {
	if from := m.win.from; m.win.open && m.cycle > from {
		if m.obs != nil {
			m.obs.rec.FFJump(from+1, m.cycle)
		}
		m.ffJumps++
		m.ffSkipped += m.cycle - from
	}
	m.win.open = false
}

// nextWake returns the earliest cycle > m.cycle at which any unit (or the
// fault plan) could change machine state, given that the tick that just ran
// was quiescent.
func (m *Machine) nextWake() int64 {
	now := m.cycle
	w := wakeInf
	for _, u := range m.units {
		if uw := m.unitWake(u, now); uw < w {
			w = uw
		}
	}
	for _, u := range m.active {
		if uw := m.unitWake(u, now); uw < w {
			w = uw
		}
	}
	if m.faults != nil {
		if fw := m.faults.nextBoundary(now); fw < w {
			w = fw
		}
	}
	return w
}

func (m *Machine) unitWake(u *Unit, now int64) int64 {
	if m.stuck(u) {
		return wakeInf // thaws only at a fault boundary
	}
	if now < u.startAt {
		return u.startAt
	}
	// NDRange work-item issue needs no candidate: if the top region could
	// accept, the tick would have issued (non-quiescent); stage-0 freeing is
	// op-driven and covered by the segment wakes below.
	return m.regionWake(u.top, now)
}

func (m *Machine) regionWake(re *regionExec, now int64) int64 {
	w := wakeInf
	for _, it := range re.items {
		var iw int64
		switch it := it.(type) {
		case *segExec:
			iw = m.segWake(it, now)
		case *loopExec:
			iw = m.loopWake(it, now)
		}
		if iw < w {
			w = iw
		}
	}
	return w
}

// segWake: an empty segment only batch-advances its shift counter (no timed
// wake); a stalled segment wakes when its stall window expires; otherwise
// the oldest flow with pending ops is blocked on exactly its next op.
func (m *Machine) segWake(se *segExec, now int64) int64 {
	if len(se.flows) == 0 {
		return wakeInf
	}
	if se.stallUntil > now {
		return se.stallUntil
	}
	for _, f := range se.flows {
		if ops := se.byStage[f.stage]; f.opPtr < len(ops) {
			return m.opWake(f.c, &ops[f.opPtr], now)
		}
	}
	// every op complete: the segment would advance, contradicting
	// quiescence; fall back to per-cycle stepping
	return now + 1
}

// opWake reports when a blocked op's inputs could mature. A pending guard or
// argument with a finite ready time gives an exact wake; Future means the
// producer is itself op-driven (its own wake is counted where it is
// blocked). Ready-but-refused channel ops have no timed wake. Anything else
// (intrinsic logic, unmodelled states) conservatively disables skipping.
func (m *Machine) opWake(c *Ctx, d *dop, now int64) int64 {
	if d.guardWait {
		if g := c.ready[d.guard]; g > now {
			if g == Future {
				return wakeInf
			}
			return g
		}
	}
	var wake int64
	for _, a := range d.waits {
		r := c.ready[a]
		if r <= now {
			continue
		}
		if r == Future {
			return wakeInf
		}
		if r > wake {
			wake = r
		}
	}
	if wake > now {
		return wake
	}
	switch d.x.Kind {
	case kir.OpChanRead, kir.OpChanWrite:
		return wakeInf // only a counterpart transfer or a fault thaw helps
	}
	return now + 1
}

func (m *Machine) loopWake(le *loopExec, now int64) int64 {
	if le.idle {
		return wakeInf
	}
	w := m.regionWake(le.body, now)
	for _, r := range le.residents {
		if rw := m.residentWake(le, r, now); rw < w {
			w = rw
		}
	}
	return w
}

// residentWake reports when a parked loop resident could evaluate its bounds
// or issue its next iteration.
func (m *Machine) residentWake(le *loopExec, r *resident, now int64) int64 {
	pc := r.parentFlow.c
	if !r.evaluated {
		var wake int64
		for _, s := range []int{le.r.StartSlot, le.r.EndSlot, le.r.StepSlot} {
			rd := pc.readyAt(s)
			if rd <= now {
				continue
			}
			if rd == Future {
				return wakeInf
			}
			if rd > wake {
				wake = rd
			}
		}
		for _, cc := range le.r.Carried {
			if pc.readyAt(cc.InitSlot) == Future {
				return wakeInf
			}
		}
		if wake > now {
			return wake
		}
		return now + 1 // evaluable now: should not happen in a quiescent tick
	}
	if !r.infinite && r.nextIter >= r.total {
		return wakeInf // draining: retirement is op-driven
	}
	if r.inflight >= maxInflight || !le.body.canAccept() {
		return wakeInf // backpressure releases op-driven
	}
	wake := now
	if le.multithread {
		for k := range le.r.Carried {
			st := &r.carr[k]
			if st.iter != r.nextIter-1 {
				return wakeInf // carried chain advances op-driven
			}
			if st.readyAt > now {
				if st.readyAt == Future {
					return wakeInf
				}
				if st.readyAt > wake {
					wake = st.readyAt
				}
			}
		}
		if le.anyIssue && le.r.II > 1 {
			if iw := le.iiWake(now); iw > wake {
				wake = iw // conjunctive with carried readiness: take the max
			}
		}
	} else {
		if le.r.II == 0 {
			if r.inflight > 0 {
				return wakeInf // sequential composite: next issue is op-driven
			}
			return now + 1 // issuable now: should not happen when quiescent
		}
		if le.anyIssue {
			if iw := le.iiWake(now); iw > wake {
				wake = iw
			}
		}
	}
	if wake <= now {
		return now + 1
	}
	return wake
}

// iiWake is the earliest cycle at which the body's shift counter reaches the
// II spacing required for the next issue, assuming the body's first segment
// stays empty (it shifts once per un-stalled cycle). If the segment holds
// flows its advance is op-driven and its own wake candidates apply.
func (le *loopExec) iiWake(now int64) int64 {
	if len(le.body.items) == 0 {
		return now + 1
	}
	se, ok := le.body.items[0].(*segExec)
	if !ok {
		return now + 1 // no shift pacing to wait for
	}
	if len(se.flows) > 0 {
		return wakeInf
	}
	needed := le.lastIssueShift + int64(le.r.II) - se.shifts
	if needed <= 0 {
		return now + 1
	}
	// shifts(t-1) = shifts(now) + (t-1 - base) for t-1 >= base, where base
	// accounts for a pending stall window; eligibility at cycle t sees the
	// counter as of t-1
	base := now
	if se.stallUntil-1 > base {
		base = se.stallUntil - 1
	}
	return base + needed + 1
}

// nextBoundary returns the earliest upcoming fault-event transition. Jumps
// never cross one: applyFaults runs per-tick, so every onset and expiry must
// be observed at its exact cycle.
func (fr *faultRuntime) nextBoundary(now int64) int64 {
	w := wakeInf
	for i := range fr.events {
		re := &fr.events[i]
		if re.ev.Kind == fault.LaunchSkew {
			continue // applied at install time; no runtime transition
		}
		if b := re.ev.NextBoundary(now); b < w {
			w = b
		}
	}
	return w
}

// batchAdvance replays, in O(items), the per-cycle side effects the skipped
// window (from, to] would have produced: empty segments shift once per
// un-stalled cycle, blocked channel ops charge one stall per retried cycle,
// and blocked-op bookkeeping stays contiguous so DeadlockReport wait
// durations are exact.
func (m *Machine) batchAdvance(from, to int64) {
	for _, u := range m.units {
		m.batchUnit(u, from, to)
	}
	for _, u := range m.active {
		m.batchUnit(u, from, to)
	}
}

func (m *Machine) batchUnit(u *Unit, from, to int64) {
	if m.stuck(u) || from < u.startAt {
		return // the unit does not tick in this window
	}
	stalledSegs := 0
	m.batchRegion(u, u.top, from, to, &stalledSegs)
	if u.block.op != nil && u.block.last == from {
		u.block.last = to
		if stalledSegs > 1 {
			// with several stalled segments the per-cycle bookkeeping
			// ping-pongs between their front ops, restarting the wait clock
			// every cycle; the final record's interval starts at the last
			// skipped cycle
			u.block.since = to
		}
	}
}

func (m *Machine) batchRegion(u *Unit, re *regionExec, from, to int64, stalledSegs *int) {
	for _, it := range re.items {
		switch it := it.(type) {
		case *segExec:
			if len(it.flows) == 0 {
				lo := from + 1
				if it.stallUntil > lo {
					lo = it.stallUntil
				}
				if to >= lo {
					it.shifts += to - lo + 1
				}
				continue
			}
			if it.stallUntil > from {
				continue // stalled through the window (wake capped at expiry)
			}
			for _, f := range it.flows {
				ops := it.byStage[f.stage]
				if f.opPtr >= len(ops) {
					continue
				}
				d := &ops[f.opPtr]
				*stalledSegs++
				if ch := m.chanStallTarget(f.c, d, from); ch != nil {
					if d.x.Kind == kir.OpChanRead {
						ch.AddReadStalls(to - from)
						if m.obs != nil {
							m.obsExtendStall(u, d.x.ChID, 0, from, to)
						}
					} else {
						ch.AddWriteStalls(to - from)
						if m.obs != nil {
							m.obsExtendStall(u, d.x.ChID, 1, from, to)
						}
					}
				}
				break // only the front blocked op retries each cycle
			}
		case *loopExec:
			if it.idle {
				m.replayIdle(it, to-from)
				continue
			}
			m.batchRegion(u, it.body, from, to, stalledSegs)
		}
	}
}

// autorunIdle applies the idle-fixpoint rule after a tick in which nothing
// outside the autorun units made progress: every autorun unit that did must
// consist of idle-fixpoint loops and empty segments. It marks those loops
// idle for the window and reports whether the tick is quiescent.
func (m *Machine) autorunIdle() bool {
	for _, u := range m.units {
		if u.busy && !m.regionIdle(u, u.top) {
			m.clearIdleLoops()
			return false
		}
	}
	return true
}

// clearIdleLoops drops the idle marks of the last quiescent tick.
func (m *Machine) clearIdleLoops() {
	for _, le := range m.idleLoops {
		le.idle = false
	}
	m.idleLoops = m.idleLoops[:0]
}

func (m *Machine) regionIdle(u *Unit, re *regionExec) bool {
	for _, it := range re.items {
		switch it := it.(type) {
		case *segExec:
			if len(it.flows) > 0 {
				return false
			}
		case *loopExec:
			if len(it.residents) == 0 {
				if !m.regionIdle(u, it.body) {
					return false
				}
				continue
			}
			if !m.loopIdle(u, it) {
				return false
			}
			it.idle = true
			m.idleLoops = append(m.idleLoops, it)
		}
	}
	return true
}

// loopIdle reports whether le is at its idle fixpoint: its body pipeline is
// full and flowing (one iteration per stage past the first, issued one shift
// apart), a fresh iteration with the current carried values is idle, every
// channel it polls is empty, and each iteration in flight matches the fresh
// one — carried inputs equal where already delivered, and every non-blocking
// read it already executed failed.
func (m *Machine) loopIdle(u *Unit, le *loopExec) bool {
	if !le.r.IdleFixpoint || len(le.residents) != 1 {
		return false
	}
	r := le.residents[0]
	se := le.body.items[0].(*segExec)
	depth := len(se.byStage)
	if !r.evaluated || se.stallUntil > m.cycle || !le.anyIssue ||
		se.shifts-le.lastIssueShift != 1 || len(se.flows) != depth-1 {
		return false
	}
	for i, f := range se.flows {
		if f.stage != depth-1-i || f.opPtr != 0 {
			return false
		}
	}
	p := le.idleIteration(r)
	if !p.idle {
		return false
	}
	polls := append(le.idlePolls[:0], p.polls...)
	for _, op := range p.intrinsics {
		idler, ok := op.IBuf.(Idler)
		if !ok {
			return false
		}
		polls, ok = idler.Idle(u.intrinsicEnv(nil, op, m.cycle+1), polls)
		u.ienv.Op, u.ienv.State = nil, nil
		if !ok {
			return false
		}
	}
	le.idlePolls = polls
	for _, ch := range polls {
		if m.chans[ch].Len() != 0 {
			return false
		}
	}
	for _, f := range se.flows {
		c := f.c
		for k, cc := range le.r.Carried {
			if c.readyAt(cc.PhiSlot) != Future && c.val(cc.PhiSlot) != r.carr[k].val {
				return false
			}
		}
		for _, op := range p.reads {
			if op.Start < f.stage && c.val(op.OkDst) != 0 {
				return false
			}
		}
	}
	return true
}

// idleProbe is a loop's memoized evaluation of one fresh iteration for its
// resident's carried values (key): whether it is idle, the channels its
// non-blocking reads poll, and the intrinsic ops left to their Idler, which
// is asked at every check because its state is opaque. It also keeps the
// scratch context and the body's non-blocking reads. An infinite loop's
// resident never leaves, so the carried values are the whole key.
type idleProbe struct {
	key        []int64
	idle       bool
	polls      []int
	intrinsics []*hls.XOp
	scratch    *Ctx
	reads      []*hls.XOp // the body's non-blocking reads
}

// idleIteration returns the probe for r's current carried values,
// re-evaluating it only when they changed.
func (le *loopExec) idleIteration(r *resident) *idleProbe {
	p := le.probe
	if p != nil && slices.EqualFunc(p.key, r.carr, func(v int64, st carrState) bool { return v == st.val }) {
		return p
	}
	if p == nil {
		p = &idleProbe{scratch: &Ctx{}}
		for _, op := range le.body.items[0].(*segExec).seg.Ops {
			if op.Kind == kir.OpChanReadNB {
				p.reads = append(p.reads, op)
			}
		}
		le.probe = p
	}
	p.key = p.key[:0]
	for k := range r.carr {
		p.key = append(p.key, r.carr[k].val)
	}
	p.idle = le.evalIdle(r, p)
	return p
}

// evalIdle runs one fresh iteration of le on the probe's scratch context
// with every non-blocking read failing, in stage order, ignoring time. The
// iteration is idle if it touches no memory, writes no channel, reads no
// blocking channel, and produces every carried Next equal to its input.
// ALU ops run their decoded evaluators; library calls are tainted, hence
// dead, so their value is left at zero. The decoded readiness checks apply
// as "not yet produced": an operand the schedule proves was written by an
// earlier op of the iteration.
func (le *loopExec) evalIdle(r *resident, p *idleProbe) bool {
	p.polls, p.intrinsics = p.polls[:0], p.intrinsics[:0]
	pc, c := r.parentFlow.c, p.scratch
	c.slots = append(c.slots[:0], pc.slots...)
	c.ready = append(c.ready[:0], pc.ready...)
	c.wiID = pc.wiID
	if ind := le.r.IndSlot; ind >= 0 {
		c.slots[ind], c.ready[ind] = r.start+r.nextIter*r.step, 0
	}
	for k, cc := range le.r.Carried {
		if cc.NextSlot < 0 {
			return false
		}
		c.slots[cc.PhiSlot], c.ready[cc.PhiSlot] = r.carr[k].val, 0
	}
	for _, ops := range le.body.items[0].(*segExec).byStage {
		for i := range ops {
			d := &ops[i]
			if d.guard >= 0 {
				if d.guardWait && c.ready[d.guard] == Future {
					return false
				}
				if c.slots[d.guard] == 0 {
					continue
				}
			}
			for _, a := range d.waits {
				if c.ready[a] == Future {
					return false
				}
			}
			switch {
			case d.eval != nil:
				c.set(int(d.dst), d.eval(d, c), 0)
			case d.x.Kind == kir.OpCall:
				c.set(int(d.dst), 0, 0)
			case d.x.Kind == kir.OpGlobalID:
				c.set(int(d.dst), c.wiID, 0)
			case d.x.Kind == kir.OpChanReadNB:
				c.set(int(d.dst), 0, 0)
				c.set(int(d.ok), 0, 0)
				p.polls = append(p.polls, d.x.ChID)
			case d.x.Kind == kir.OpIBufLogic:
				p.intrinsics = append(p.intrinsics, d.x)
			case d.x.Kind == kir.OpFence || d.x.Kind.IsALU():
				// a fence orders nothing here; an ALU op without a
				// destination has no effect
			default:
				return false
			}
		}
	}
	for k, cc := range le.r.Carried {
		if c.readyAt(cc.NextSlot) == Future || c.val(cc.NextSlot) != r.carr[k].val {
			return false
		}
	}
	return true
}

// replayIdle advances an idle-fixpoint loop n cycles: n more iterations
// issued and as many retired, which leaves every in-flight context where it
// was under an iteration number n higher. Carried values, pipeline stages
// and the live slot values are those of the cycle before; stale time stamps
// and ready times are dead by the taint analysis, and the induction slot is
// recomputed. Each skipped cycle fails every polled read once.
func (m *Machine) replayIdle(le *loopExec, n int64) {
	se := le.body.items[0].(*segExec)
	se.shifts += n
	le.lastIssueShift += n
	r := le.residents[0]
	r.nextIter += n
	for k := range r.carr {
		r.carr[k].iter += n
	}
	for _, f := range se.flows {
		f.c.iter += n
		if ind := le.r.IndSlot; ind >= 0 {
			f.c.slots[ind] = r.start + f.c.iter*r.step
		}
	}
	for _, ch := range le.idlePolls {
		m.chans[ch].AddReadStalls(n)
	}
}

// chanStallTarget returns the channel whose stall counter the blocked op
// charges each retried cycle, mirroring execOps' early-outs: a pending
// guard or argument fails before the channel is consulted (no stat), a false
// guard would have skipped the op (not blocked), and only blocking channel
// ops reach TryRead/TryWrite.
func (m *Machine) chanStallTarget(c *Ctx, d *dop, now int64) *channel.Channel {
	if d.x.Kind != kir.OpChanRead && d.x.Kind != kir.OpChanWrite {
		return nil
	}
	if d.guard >= 0 {
		if (d.guardWait && c.ready[d.guard] > now) || c.slots[d.guard] == 0 {
			return nil
		}
	}
	for _, a := range d.waits {
		if c.ready[a] > now {
			return nil
		}
	}
	return d.ch
}
