package hls

import (
	"math"

	"oclfpga/internal/kir"
)

// Static half of the simulator's idle-fixpoint rule (DESIGN.md §8). An
// autorun polling loop — the paper's ibuffer — issues one iteration per
// cycle forever. When nothing arrives, every iteration fails its
// non-blocking reads and hands its carried state on unchanged, so the
// simulator can replay a run of such cycles in closed form instead of
// stepping them. That replay keeps every in-flight iteration context as it
// was and only renumbers it, so values that differ from one iteration to
// the next go stale. They are the induction variable and everything
// computed from a library call (get_time is a function of the cycle). The
// analysis here proves those values dead: they are "tainted", and the loop
// is eligible only if no tainted value decides anything.

// markIdleFixpoints sets XRegion.IdleFixpoint on the eligible loops of an
// autorun compute unit. It runs once per compile, after scheduling.
func markIdleFixpoints(x *XKernel) {
	if x.Mode != kir.Autorun {
		return
	}
	x.Root.WalkRegions(func(r *XRegion) { r.IdleFixpoint = idleFixpoint(r, x.NumSlots) })
}

// idleFixpoint reports whether r is an infinite, in-order II=1 leaf loop in
// which no tainted value reaches a guard, a select condition, a carried Next
// value, a memory address, or a channel or intrinsic argument. Tainted store
// data is allowed: the store's guard is untainted, so an idle iteration
// skips it.
//
// One ordering rule closes the gap a renumbered context leaves: every op
// producing a tainted value must execute after the iteration's last channel
// poll. A context that holds a stale value has then already failed all its
// polls. Its remaining ops are those of an idle iteration, so the stale value
// stays unused after the replay ends.
func idleFixpoint(r *XRegion, numSlots int) bool {
	if !r.IsLoop || !r.Infinite || !r.Leaf() || r.II != 1 {
		return false
	}
	// Ops run in stage order, program order within a stage; pos ranks them
	// so. Program order puts every def before its uses, so one pass in it
	// propagates taint.
	ops := r.Items[0].(*Segment).Ops
	pos := func(i int) int { return ops[i].Start*len(ops) + i }
	tainted := make([]bool, numSlots)
	if r.IndSlot >= 0 {
		tainted[r.IndSlot] = true
	}
	anyTainted := func(slots []int) bool {
		for _, s := range slots {
			if s >= 0 && tainted[s] {
				return true
			}
		}
		return false
	}
	lastPoll, firstTaint := -1, math.MaxInt
	for i, op := range ops {
		if op.Guard >= 0 && tainted[op.Guard] {
			return false
		}
		out := false
		switch op.Kind {
		case kir.OpCall:
			out = true // a function of the cycle
		case kir.OpSelect:
			if tainted[op.Args[0]] {
				return false
			}
			out = tainted[op.Args[1]] || tainted[op.Args[2]]
		case kir.OpLoad, kir.OpStore, kir.OpLocalLoad, kir.OpLocalStore:
			if tainted[op.Args[0]] {
				return false
			}
		case kir.OpChanRead, kir.OpChanReadNB, kir.OpIBufLogic:
			if anyTainted(op.Args) {
				return false
			}
			lastPoll = max(lastPoll, pos(i))
		case kir.OpChanWrite, kir.OpChanWriteNB:
			if anyTainted(op.Args) {
				return false
			}
		default:
			out = anyTainted(op.Args)
		}
		if out && op.Dst >= 0 {
			tainted[op.Dst] = true
			firstTaint = min(firstTaint, pos(i))
		}
	}
	for _, c := range r.Carried {
		if c.NextSlot >= 0 && tainted[c.NextSlot] {
			return false
		}
	}
	return firstTaint > lastPoll
}
