package sim

import "math"

// Future marks a slot whose value has not been produced yet.
const Future = int64(math.MaxInt64)

// Ctx is one execution context: a single-task kernel activation, one
// work-item, or one loop iteration. It owns a private copy of the kernel's
// value slots so that pipelined iterations in flight do not clobber each
// other, mirroring the per-stage registers of the synthesized pipeline.
type Ctx struct {
	slots []int64
	ready []int64 // cycle at which the slot's value may be consumed

	owner *loopExec // loop this context is an iteration of (nil at top)
	iter  int64     // iteration index within owner
	res   *resident // owner's resident that issued it (work-item threading)
	wiID  int64     // get_global_id(0) for NDRange work-items
}

// allocCtx returns a cleared context sized for the unit's kernel, recycling
// a retired one when available — contexts churn once per work-item and once
// per loop iteration, so pooling removes the dominant allocation source in
// the simulation hot path. Every context holds the kernel's slots plus the
// zero slot (Unit.zero), which absent operands read and nothing writes.
func (u *Unit) allocCtx() *Ctx {
	c := u.takeCtx(u.zero + 1)
	for i := range c.slots {
		c.slots[i] = 0
		c.ready[i] = Future
	}
	return c
}

// childCtx clones pc for a loop iteration: parent-computed values (and their
// pending ready times) are visible; everything else stays Future.
func (u *Unit) childCtx(pc *Ctx) *Ctx {
	c := u.takeCtx(len(pc.slots))
	copy(c.slots, pc.slots)
	copy(c.ready, pc.ready)
	c.wiID = pc.wiID
	return c
}

// takeCtx pops a pooled context (or makes one) with slot arrays of length n
// and neutral metadata; the caller initializes slot contents.
func (u *Unit) takeCtx(n int) *Ctx {
	if k := len(u.ctxPool); k > 0 {
		c := u.ctxPool[k-1]
		u.ctxPool[k-1] = nil
		u.ctxPool = u.ctxPool[:k-1]
		if cap(c.slots) < n {
			c.slots = make([]int64, n)
			c.ready = make([]int64, n)
		} else {
			c.slots = c.slots[:n]
			c.ready = c.ready[:n]
		}
		return c
	}
	return &Ctx{slots: make([]int64, n), ready: make([]int64, n)}
}

// freeCtx recycles a retired context. The caller must guarantee nothing
// still references it (loop engines purge waiting lists before retiring).
func (u *Unit) freeCtx(c *Ctx) {
	c.owner = nil
	c.iter, c.res, c.wiID = 0, nil, 0
	u.ctxPool = append(u.ctxPool, c)
}

// newFlow returns a flow carrier for c, recycled when possible.
func (u *Unit) newFlow(c *Ctx) *flow {
	if k := len(u.flowPool); k > 0 {
		f := u.flowPool[k-1]
		u.flowPool[k-1] = nil
		u.flowPool = u.flowPool[:k-1]
		*f = flow{c: c}
		return f
	}
	return &flow{c: c}
}

// freeFlow recycles a flow whose context has left the region tree.
func (u *Unit) freeFlow(f *flow) {
	*f = flow{}
	u.flowPool = append(u.flowPool, f)
}

// readyAt reports when slot s may be consumed (Future if unwritten).
func (c *Ctx) readyAt(s int) int64 {
	if s < 0 {
		return 0
	}
	if s >= len(c.ready) {
		return Future
	}
	return c.ready[s]
}

// val returns the current value of slot s.
func (c *Ctx) val(s int) int64 {
	if s < 0 || s >= len(c.slots) {
		return 0
	}
	return c.slots[s]
}

// set stores a value with its availability cycle (no-op for s < 0). Slot
// indexes are checked once, when ops are decoded, and contexts are sized to
// the kernel, so nothing grows here.
func (c *Ctx) set(s int, v, at int64) {
	if s >= 0 {
		c.slots[s] = v
		c.ready[s] = at
	}
}

// write stores a value like set and forwards it when it is a carried Next
// value of the context's loop. Decoded ops know that at build time
// (dop.fwd); write serves the loop engine's phi deliveries and loop outputs.
func (c *Ctx) write(s int, v, at int64) {
	c.set(s, v, at)
	if c.owner != nil {
		c.owner.forwardSlot(c, s, v, at)
	}
}
