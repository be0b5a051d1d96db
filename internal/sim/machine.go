// Package sim executes compiled designs cycle by cycle: kernel pipelines
// with lockstep stalls, Altera-channel connectivity, autorun persistent
// kernels, and the banked global-memory system. It is the stand-in for the
// paper's synthesized FPGA hardware.
package sim

import (
	"fmt"
	"sort"

	"oclfpga/internal/channel"
	"oclfpga/internal/fault"
	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/query"
)

// Options configure a machine.
type Options struct {
	// MaxCycles bounds a Run (default 20,000,000).
	MaxCycles int64
	// StallLimit is how many cycles with zero forward progress on launched
	// kernels are tolerated before Run reports a deadlock (default 100,000).
	StallLimit int64
	// MemConfig tunes the DRAM model.
	MemConfig mem.Config
	// AutorunSkew returns the launch-cycle offset of an autorun kernel
	// compute unit. The paper notes separate persistent kernels may not
	// launch in the same cycle, skewing free-running counters (§3.1); a
	// non-zero skew reproduces that hazard.
	AutorunSkew func(kernel string, cu int) int64
	// Fault is an optional deterministic fault-injection plan the machine
	// consults every cycle. Unknown targets surface as an error from the
	// first Run rather than being silently ignored.
	Fault *fault.Plan
	// DisableFastForward forces Run to step every cycle even when the whole
	// fabric is provably quiescent. Fast-forward is exactly
	// semantics-preserving (see DESIGN.md §8), so this exists for debugging
	// and for the equivalence test suite, not for correctness.
	DisableFastForward bool
	// Observe attaches the observability recorder (DESIGN.md §9): a
	// structured event timeline plus, when Observe.SampleEvery > 0, a
	// periodic metrics series. Unlike a VCD cycle hook the recorder is
	// event-driven, so fast-forward stays enabled and the record is
	// byte-identical with skipping on or off. Nil disables observability;
	// the hot path then pays a single nil check.
	Observe *obs.Config
	// CaptureAt lists cycles at which OnCapture fires with the machine
	// paused exactly there (DESIGN.md §14). A fast-forward jump pauses its
	// batch advance on each capture cycle and then continues, so the
	// callback sees precisely the state the per-cycle path would and the
	// record is the same as without captures. The callback must only read
	// (StateDump, StateHash, statistics); mutating the machine would fork
	// the deterministic re-execution captures exist to verify. Cycles before
	// the machine's current cycle are dropped; one at it fires when the first
	// drive call starts.
	CaptureAt []int64
	// OnCapture receives each CaptureAt cycle as the machine reaches it
	// during any drive call. Ignored when CaptureAt is empty.
	OnCapture func(m *Machine, cycle int64)
	// Breaks arms breakpoint/watchpoint specs on every drive call
	// (DESIGN.md §14): the first hit halts the machine, and that call and
	// every later one return a *BreakError. An unknown target surfaces as an
	// error from the first drive call.
	Breaks []query.Break
}

func (o *Options) fill() {
	if o.MaxCycles == 0 {
		o.MaxCycles = 20_000_000
	}
	if o.StallLimit == 0 {
		o.StallLimit = 100_000
	}
}

// Machine is one simulated board with a loaded design. Autorun kernels (the
// paper's persistent counters and ibuffers) run continuously; host launches
// enqueue single-task and NDRange kernels against the same live fabric.
type Machine struct {
	d    *hls.Design
	opts Options

	chans  []*channel.Channel
	Mem    *mem.System
	bufs   map[string]*mem.Buffer
	units  []*Unit // autorun units, persistent
	active []*Unit // launched units still running
	// launched keeps every launch in launch order, finished or not — the
	// state-dump walk needs units m.active has already dropped. (obsState
	// keeps its own copy because observability can outlive this machine's
	// run; this one exists even with observability off.)
	launched []*Unit

	cycle        int64
	lastProgress int64
	err          error

	// workDone is reset at the top of every tick and set whenever the tick
	// changes machine state in a way that is not batch-replayable, and by
	// every channel transfer. Other progress by autorun units marks only
	// the unit (Unit.busy): a tick that ends with workDone false is
	// quiescent, and Run may fast-forward, when every busy autorun unit
	// passes the idle-fixpoint check.
	workDone bool
	// idleLoops are the loops the last quiescent tick found at their idle
	// fixpoint (loopExec.idle); cleared at the top of the next tick.
	idleLoops []*loopExec
	// dirtyChans lists channels touched since their last EndCycle.
	dirtyChans []*channel.Channel
	// fast-forward statistics (see FastForwardStats).
	ffJumps   int64
	ffSkipped int64
	// win is the open fast-forward jump, if any (see ffWindow).
	win ffWindow
	// breaks are Options.Breaks with their targets resolved.
	breaks []compiledBreak

	faults *faultRuntime

	// captures is Options.CaptureAt sorted, deduplicated, and filtered to
	// the future; capIdx points at the next pending capture cycle.
	captures []int64
	capIdx   int
	// dHash memoizes DesignHash (0 = not yet computed).
	dHash uint64

	// obs is the observability recorder state (nil when Options.Observe is
	// unset — every hook site checks this once).
	obs *obsState

	// cycleHooks run at the end of every cycle (after channel commit);
	// the VCD recorder uses this.
	cycleHooks []func(cycle int64)
}

// New loads a design onto a fresh machine and starts its autorun kernels.
func New(d *hls.Design, opts Options) *Machine {
	opts.fill()
	m := &Machine{d: d, opts: opts, Mem: mem.NewSystem(opts.MemConfig), bufs: map[string]*mem.Buffer{}}
	for i, c := range d.Program.Chans {
		ch := channel.New(c.Name, d.ChanDepth[i])
		ch.SetNotify(func() { m.dirtyChans = append(m.dirtyChans, ch) })
		m.chans = append(m.chans, ch)
	}
	if opts.Observe != nil {
		m.initObserve(opts.Observe)
	}
	for _, xk := range d.Kernels {
		if xk.Mode != kir.Autorun {
			continue
		}
		u := m.newUnit(xk)
		if opts.AutorunSkew != nil {
			u.startAt = opts.AutorunSkew(xk.Name, xk.CU)
		}
		m.units = append(m.units, u)
	}
	if opts.Fault != nil {
		if err := m.installFaults(opts.Fault); err != nil && m.err == nil {
			m.err = err
		}
	}
	if err := m.armBreaks(opts.Breaks); err != nil && m.err == nil {
		m.err = err
	}
	if len(opts.CaptureAt) > 0 && opts.OnCapture != nil {
		m.captures = append(m.captures, opts.CaptureAt...)
		sort.Slice(m.captures, func(i, j int) bool { return m.captures[i] < m.captures[j] })
		kept := m.captures[:0]
		for _, c := range m.captures {
			if c >= m.cycle && (len(kept) == 0 || kept[len(kept)-1] != c) {
				kept = append(kept, c)
			}
		}
		m.captures = kept
	}
	return m
}

// Design returns the loaded design.
func (m *Machine) Design() *hls.Design { return m.d }

// Cycle returns the current simulation time.
func (m *Machine) Cycle() int64 { return m.cycle }

// Channel returns the named channel (nil if absent).
func (m *Machine) Channel(name string) *channel.Channel {
	c := m.d.Program.ChanByName(name)
	if c == nil {
		return nil
	}
	return m.chans[c.ID]
}

// NewBuffer allocates a global-memory buffer for kernel arguments. A
// duplicate name or bad size is reported as an error: buffer setup is the
// host program's public path, where misuse should not crash the process.
func (m *Machine) NewBuffer(name string, elem kir.Type, n int) (*mem.Buffer, error) {
	if _, dup := m.bufs[name]; dup {
		return nil, fmt.Errorf("sim: duplicate buffer %q", name)
	}
	bytes := int64(elem.Bits() / 8)
	if bytes == 0 {
		bytes = 1
	}
	b, err := m.Mem.Alloc(name, bytes, n)
	if err != nil {
		return nil, err
	}
	m.bufs[name] = b
	return b, nil
}

// Buffer returns a previously allocated buffer.
func (m *Machine) Buffer(name string) *mem.Buffer { return m.bufs[name] }

// Args binds kernel parameters by name: scalars as int64, arrays as
// *mem.Buffer.
type Args map[string]any

// Launch enqueues a single-task kernel. The returned unit exposes statistics
// after Run completes.
func (m *Machine) Launch(kernel string, args Args) (*Unit, error) {
	return m.launch(kernel, args, 0)
}

// LaunchND enqueues an NDRange kernel with globalSize work-items.
func (m *Machine) LaunchND(kernel string, globalSize int64, args Args) (*Unit, error) {
	if globalSize <= 0 {
		return nil, fmt.Errorf("sim: global size %d", globalSize)
	}
	return m.launch(kernel, args, globalSize)
}

func (m *Machine) launch(kernel string, args Args, globalSize int64) (*Unit, error) {
	units := m.d.KernelUnits(kernel)
	if len(units) == 0 {
		return nil, fmt.Errorf("sim: kernel %q not in design", kernel)
	}
	if len(units) > 1 {
		return nil, fmt.Errorf("sim: kernel %q is replicated; only autorun kernels replicate", kernel)
	}
	xk := units[0]
	switch {
	case xk.Mode == kir.Autorun:
		return nil, fmt.Errorf("sim: kernel %q is autorun and cannot be launched", kernel)
	case xk.Mode == kir.NDRange && globalSize == 0:
		return nil, fmt.Errorf("sim: NDRange kernel %q needs LaunchND", kernel)
	case xk.Mode != kir.NDRange && globalSize != 0:
		return nil, fmt.Errorf("sim: kernel %q is not NDRange", kernel)
	}

	u := m.newUnit(xk)
	u.globalSize = globalSize
	u.startAt = m.cycle + 1
	for _, p := range xk.Src.Params {
		a, ok := args[p.Name]
		if !ok {
			return nil, fmt.Errorf("sim: kernel %q: missing argument %q", kernel, p.Name)
		}
		switch p.Kind {
		case kir.ScalarParam:
			var v int64
			switch a := a.(type) {
			case int64:
				v = a
			case int:
				v = int64(a)
			default:
				return nil, fmt.Errorf("sim: kernel %q: argument %q must be an integer", kernel, p.Name)
			}
			u.scalars = append(u.scalars, scalarBind{slot: xk.ScalarSlots[p.Index], val: v})
		case kir.GlobalArray:
			buf, ok := a.(*mem.Buffer)
			if !ok {
				return nil, fmt.Errorf("sim: kernel %q: argument %q must be a *mem.Buffer", kernel, p.Name)
			}
			for i, site := range xk.LSUs {
				if site.Arr == p {
					u.lsus[i] = m.Mem.NewLSU(site.Kind, buf)
				}
			}
		}
	}
	for i, site := range xk.LSUs {
		if u.lsus[i] == nil {
			return nil, fmt.Errorf("sim: kernel %q: access site on %q has no bound buffer", kernel, site.Arr.Name)
		}
	}
	m.closeWindow() // the new unit ends any quiescent window
	m.active = append(m.active, u)
	m.launched = append(m.launched, u)
	if m.obs != nil {
		m.obsLaunch(u)
	}
	return u, nil
}

// Step advances the machine n cycles unconditionally, ticking each one
// (autorun kernels keep running whether or not anything is launched).
func (m *Machine) Step(n int64) {
	m.closeWindow()
	for i := int64(0); i < n; i++ {
		m.tick()
		m.fireCaptures()
	}
}

// nextCapture is the next pending capture cycle (wakeInf when none).
func (m *Machine) nextCapture() int64 {
	if m.capIdx < len(m.captures) {
		return m.captures[m.capIdx]
	}
	return wakeInf
}

// fireCaptures delivers the capture at the current cycle. Every drive call
// lands on each capture cycle; one the clock passed is dropped, never
// delivered late with wrong state.
func (m *Machine) fireCaptures() {
	for ; m.cycle >= m.nextCapture(); m.capIdx++ {
		if m.captures[m.capIdx] == m.cycle {
			m.opts.OnCapture(m, m.cycle)
		}
	}
}

// Run advances until every launched kernel completes. On deadlock (no
// forward progress within StallLimit) or cycle overrun it returns a
// *DeadlockError carrying a structured DeadlockReport: per-unit wait states,
// the wait-for graph, and a one-line blame verdict.
func (m *Machine) Run() error { return m.run(wakeInf, 0) }

// RunFor advances like Run but gives up after budget cycles, returning a
// *DeadlockError whose report's Reason is ReasonBudget (Timeout() true). The
// machine stays consistent: a later Run or RunFor continues where this one
// stopped, which is what the host controller's retry loop relies on, and
// records exactly what one uninterrupted Run would.
func (m *Machine) RunFor(budget int64) error { return m.run(m.cycle+budget, 0) }

// RunTo advances the machine to exactly cycle target, whether or not the
// launched work completes on the way — the rewind primitive: re-execute
// deterministically, stop on the dot. Reaching the target is not an error;
// a genuine deadlock or fault error surfaces as usual.
func (m *Machine) RunTo(target int64) error {
	if target < m.cycle {
		return fmt.Errorf("sim: RunTo(%d): cycle is in the past (machine at %d)", target, m.cycle)
	}
	return m.run(target, target)
}

// run is the one drive loop: it advances until the launched work completes
// or the clock reaches stop (a budget stop unless idle reaches it too), and
// keeps the autorun fabric running after completion while below idle. A
// quiescent tick opens a fast-forward window, which advances to its end or
// pauses at a stop, capture or break deadline inside it. Every landing fires
// due captures and checks the breaks, the stall limit and the cycle ceiling.
func (m *Machine) run(stop, idle int64) error {
	if m.err != nil {
		return m.err // e.g. a fault plan targeting an unknown channel/kernel
	}
	if m.obs != nil {
		// Sink delivery runs on the recorder's delivery goroutine for the
		// call; every return leaves the sink caught up.
		m.obs.rec.Batch()
		defer m.obs.rec.Sync()
	}
	m.fireCaptures() // a capture at the current cycle
	if !m.fastForwardOK() {
		m.closeWindow() // a cycle hook attached mid-window observes every cycle from here
	}
	for m.cycle < stop && (len(m.active) > 0 || m.cycle < idle) {
		ticked := !m.win.open
		if ticked {
			m.tick()
		} else {
			m.advanceWindow(min(m.win.end, stop, m.breakDeadline(), m.nextCapture()))
		}
		if m.cycle >= m.nextCapture() {
			m.fireCaptures()
		}
		if m.err != nil {
			return m.err
		}
		if len(m.breaks) > 0 {
			if hit := m.checkBreaks(); hit != nil {
				m.err = &BreakError{Hit: hit}
				return m.err
			}
		}
		if len(m.active) > 0 && m.cycle-m.lastProgress > m.opts.StallLimit {
			return &DeadlockError{Report: m.DeadlockReport(ReasonStallLimit)}
		}
		if m.cycle > m.opts.MaxCycles {
			return &DeadlockError{Report: m.DeadlockReport(ReasonMaxCycles)}
		}
		if ticked && !m.workDone && m.fastForwardOK() && m.autorunIdle() {
			m.openWindow()
		}
	}
	if len(m.active) > 0 && idle < stop {
		return &DeadlockError{Report: m.DeadlockReport(ReasonBudget)}
	}
	return nil
}

func (m *Machine) tick() {
	m.cycle++
	m.workDone = false
	m.clearIdleLoops()
	m.applyFaults()
	// channels re-snapshot lazily: the dirty set built by their notify
	// callbacks replaces the old begin-of-cycle scan over every channel
	for _, u := range m.units {
		u.busy = false
		if m.stuck(u) {
			continue
		}
		u.tick(m.cycle)
	}
	stillActive := m.active[:0]
	for _, u := range m.active {
		if m.stuck(u) {
			stillActive = append(stillActive, u)
			continue
		}
		u.tick(m.cycle)
		if u.Done() {
			u.finishedAt = m.cycle
			if m.obs != nil {
				m.obsUnitFinished(u)
			}
			continue
		}
		stillActive = append(stillActive, u)
	}
	m.active = stillActive
	if len(m.dirtyChans) > 0 {
		// a transfer can unblock a counterpart, whichever unit made it
		m.workDone = true
		for i, c := range m.dirtyChans {
			c.EndCycle()
			m.dirtyChans[i] = nil
		}
		m.dirtyChans = m.dirtyChans[:0]
	}
	for _, h := range m.cycleHooks {
		h(m.cycle)
	}
	if m.obs != nil {
		m.obsEndTick()
	}
}

// Unit is one kernel compute unit activation.
type Unit struct {
	m  *Machine
	xk *hls.XKernel
	// zero is the contexts' zero slot, one past the kernel's slots: decoded
	// ops read it for an absent operand, and nothing writes it.
	zero int

	top    *regionExec
	locals []*mem.LocalMem
	lsus   []*mem.LSU
	// scalars holds the launch's scalar bindings, copied into every top
	// context (a sparse slice: kernels have a handful of scalar params).
	scalars []scalarBind

	startAt    int64
	started    bool
	startedAt  int64 // first cycle the unit actually ticked
	finishedAt int64

	// NDRange progress
	globalSize int64
	issuedWI   int64
	doneWI     int64
	// single-task / autorun progress
	topDone bool

	// obsTrack/obsName cache the unit's interned observability IDs
	// ("unit:<name>" / "<name>"), filled lazily by obsUnitIDs so stall and
	// sample hooks never rebuild the name string (UnitName allocates for
	// replicated kernels).
	obsTrack, obsName obs.ID
	// obsSites is the per-access-site sample vocabulary (array/kind IDs),
	// filled lazily by obsSiteIDs.
	obsSites []obsSiteID

	// intrinsicState is indexed by XOp.StateIdx (dense, assigned during
	// lowering) — the hot path avoids a per-op map lookup.
	intrinsicState []any
	ienv           IntrinsicEnv
	// callArgs is the reused argument scratch of OpCall.
	callArgs []int64
	// ctxPool / flowPool recycle retired iteration and work-item carriers.
	ctxPool  []*Ctx
	flowPool []*flow
	// auto marks an autorun unit; busy records that it made progress in the
	// current tick (see Machine.workDone).
	auto, busy bool
	// block tracks the most recent blocked operation for hang diagnostics.
	block blockState
}

// scalarBind is one scalar kernel argument pinned to its slot.
type scalarBind struct {
	slot int
	val  int64
}

// blockState is a unit's structured record of what it is (or was last)
// waiting on — the raw material for DeadlockReport.
type blockState struct {
	op    *hls.XOp
	chID  int    // program channel id, -1 when not a channel op
	dir   string // "read" / "write" for channel ops, "" otherwise
	since int64  // first cycle of the current consecutive blockage
	last  int64  // most recent blocked cycle
}

func (m *Machine) newUnit(xk *hls.XKernel) *Unit {
	u := &Unit{
		m:    m,
		xk:   xk,
		zero: xk.NumSlots,
		lsus: make([]*mem.LSU, len(xk.LSUs)),
		auto: xk.Mode == kir.Autorun,
	}
	if xk.NumIBufStates > 0 {
		u.intrinsicState = make([]any, xk.NumIBufStates)
	}
	for _, la := range xk.Src.Locals {
		u.locals = append(u.locals, mem.NewLocalMem(fmt.Sprintf("%s.%s", xk.UnitName(), la.Name), la.Size))
	}
	u.top = buildRegionExec(u, xk.Root, nil, kernelDefs(xk, u.zero), func(c *Ctx) {
		if u.xk.Mode == kir.NDRange {
			u.doneWI++
		} else {
			u.topDone = true
		}
		u.freeCtx(c)
	})
	return u
}

// Kernel returns the underlying compute unit.
func (u *Unit) Kernel() *hls.XKernel { return u.xk }

// FinishedAt returns the cycle the launch completed (0 while running).
func (u *Unit) FinishedAt() int64 { return u.finishedAt }

// Local returns the unit's local memory by array index.
func (u *Unit) Local(i int) *mem.LocalMem { return u.locals[i] }

// LSU returns the unit's load/store unit for access site i.
func (u *Unit) LSU(i int) *mem.LSU { return u.lsus[i] }

// Done reports whether the activation has completed (never true for
// autorun).
func (u *Unit) Done() bool {
	switch u.xk.Mode {
	case kir.Autorun:
		return false
	case kir.NDRange:
		return u.started && u.doneWI >= u.globalSize
	default:
		return u.started && u.topDone
	}
}

func (u *Unit) noteProgress() {
	if u.auto {
		u.busy = true
		return
	}
	u.m.workDone = true
	u.m.lastProgress = u.m.cycle
}

// noteBlockedOp records that op could not proceed this cycle. Consecutive
// blockages on the same op accumulate into one wait interval; any progress
// in between restarts the clock.
func (u *Unit) noteBlockedOp(op *hls.XOp, now int64) {
	if u.block.op != op || u.block.last < now-1 {
		u.block.since = now
	}
	u.block.op = op
	u.block.last = now
	u.block.chID = -1
	u.block.dir = ""
	switch op.Kind {
	case kir.OpChanRead, kir.OpChanReadNB:
		u.block.chID, u.block.dir = op.ChID, "read"
	case kir.OpChanWrite, kir.OpChanWriteNB:
		u.block.chID, u.block.dir = op.ChID, "write"
	case kir.OpIBufLogic:
		if op.ChID >= 0 {
			u.block.chID, u.block.dir = op.ChID, "read"
		}
	}
}

func (u *Unit) tick(now int64) {
	if now < u.startAt {
		return
	}
	switch u.xk.Mode {
	case kir.NDRange:
		if !u.started {
			u.started = true
			u.startedAt = now
			u.m.workDone = true
		}
		if u.issuedWI < u.globalSize && u.top.canAccept() {
			c := u.newTopCtx(now)
			c.wiID = u.issuedWI
			u.issuedWI++
			u.m.workDone = true
			u.top.enter(u.newFlow(c))
		}
	default:
		if !u.started {
			u.started = true
			u.startedAt = now
			u.m.workDone = true
			u.top.enter(u.newFlow(u.newTopCtx(now)))
		}
	}
	u.top.tick(now)
}

// newTopCtx builds (or recycles) a top-level context with the launch's
// scalar arguments bound at the current cycle.
func (u *Unit) newTopCtx(now int64) *Ctx {
	c := u.allocCtx()
	for _, sb := range u.scalars {
		c.slots[sb.slot] = sb.val
		c.ready[sb.slot] = now
	}
	return c
}
