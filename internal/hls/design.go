// Package hls is the offline compiler: it lowers a kir.Program into
// synthesized pipeline datapaths (the role AOCL v16.0 plays in the paper),
// schedules them, selects load/store units, sizes channels, estimates area
// and Fmax via internal/area, and emits a compiler log.
//
// The paper leans on three compiler behaviours that this package reproduces
// rather than hard-codes:
//
//   - Read-site scheduling: operations with no data dependence are scheduled
//     ASAP, so a timestamp read that does not consume a kernel value can
//     drift away from the event it should bracket (§3.1). Passing the
//     event's value through get_time(command) manufactures the dependence
//     that pins it.
//   - Channel-depth optimization: the compiler may deepen a declared
//     depth-0 channel, turning the always-fresh register channel into a FIFO
//     of stale timestamps (§3.1). Options.OptimizeChannelDepths models it.
//   - Single-cycle launch: an autorun loop with no loop-variable dependence
//     and no inner loops schedules at II=1, which the paper verifies in the
//     compiler log to prove the ibuffer is stall-free (§4).
package hls

import (
	"fmt"

	"oclfpga/internal/area"
	"oclfpga/internal/device"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
)

// Options control compilation.
type Options struct {
	// OptimizeChannelDepths lets the compiler raise channel depths to cover
	// pipeline latency — including declared depth-0 channels, which is the
	// stale-timestamp pitfall of §3.1. Off by default (the vendor compiler
	// "may" do this; the paper's working configurations assume it did not).
	OptimizeChannelDepths bool
	// MinOptimizedDepth is the depth the optimization pass raises channels
	// to (default 16).
	MinOptimizedDepth int
	// DisableFreqOptimize turns off the logic-for-frequency synthesis
	// optimization applied to un-instrumented designs (Table 1 discussion).
	DisableFreqOptimize bool
}

func (o *Options) fill() {
	if o.MinOptimizedDepth == 0 {
		o.MinOptimizedDepth = 16
	}
}

// Design is a compiled program: one elaborated, scheduled datapath per
// kernel compute unit, plus the synthesis report.
type Design struct {
	Program *kir.Program
	Device  *device.Device
	Options Options

	Kernels []*XKernel
	// ChanDepth is the synthesized depth per channel ID (after the
	// channel-depth pass); ChanBits the payload width.
	ChanDepth []int
	ChanBits  []int

	Area area.Report
	Log  []string
}

// Logf appends a formatted compiler log line.
func (d *Design) Logf(format string, args ...any) {
	d.Log = append(d.Log, fmt.Sprintf(format, args...))
}

// KernelUnits returns all compute units of the named kernel.
func (d *Design) KernelUnits(name string) []*XKernel {
	var out []*XKernel
	for _, xk := range d.Kernels {
		if xk.Name == name {
			out = append(out, xk)
		}
	}
	return out
}

// XKernel is one compute unit's elaborated, scheduled datapath.
type XKernel struct {
	Name string // kernel name
	CU   int    // compute-unit index (0-based)
	Mode kir.Mode
	Role kir.Role
	Src  *kir.Kernel

	NumSlots int
	Root     *XRegion
	LSUs     []LSUSite

	// ScalarSlots maps scalar parameter index -> slot.
	ScalarSlots map[int]int

	// NumIBufStates counts OpIBufLogic ops; each got a dense StateIdx during
	// lowering so the simulator can keep intrinsic state in a slice instead
	// of a per-op map.
	NumIBufStates int
}

// UnitName returns "kernel" or "kernel[cu]" for replicated kernels.
func (x *XKernel) UnitName() string {
	if x.Src.NumComputeUnits > 1 {
		return fmt.Sprintf("%s[%d]", x.Name, x.CU)
	}
	return x.Name
}

// LSUSite is one static global-memory access site.
type LSUSite struct {
	Kind     mem.LSUKind
	Arr      *kir.Param
	IsStore  bool
	StrideEl int64 // element stride when affine (0 = unknown/random)
}

// XItem is an element of an XRegion's ordered body: a *Segment or a child
// *XRegion.
type XItem interface{ xitem() }

// Segment is a straight-line group of scheduled ops between loops.
type Segment struct {
	Ops   []*XOp
	Depth int // schedule length in stages
}

func (*Segment) xitem() {}

// XCarried is one elaborated loop-carried variable.
type XCarried struct {
	InitSlot int
	PhiSlot  int
	NextSlot int
	OutSlot  int
}

// XRegion is a pipelined execution region: the kernel top, or one loop.
type XRegion struct {
	// Loop metadata; nil Label and zero slots for the kernel top region.
	IsLoop    bool
	Label     string
	IndSlot   int
	StartSlot int
	EndSlot   int
	StepSlot  int
	Infinite  bool
	Carried   []XCarried

	Items []XItem

	// Leaf regions (single segment, no child loops) pipeline their
	// iterations at initiation interval II; composite regions run
	// iterations sequentially.
	II int
	// HasLoopCarriedMemDep marks a global load on the carried-dependence
	// cycle (pointer chasing).
	HasLoopCarriedMemDep bool
	// IVDep carries the source loop's #pragma ivdep assertion.
	IVDep bool
	// IdleFixpoint marks an autorun polling loop whose idle cycles the
	// simulator may replay in closed form (see idle.go).
	IdleFixpoint bool
}

func (*XRegion) xitem() {}

// Leaf reports whether the region body is a single segment.
func (r *XRegion) Leaf() bool {
	return len(r.Items) == 1 && isSegment(r.Items[0])
}

func isSegment(it XItem) bool { _, ok := it.(*Segment); return ok }

// XOp is one elaborated operation with its schedule slot.
type XOp struct {
	Kind  kir.OpKind
	Dst   int // slot, -1 if none
	OkDst int // slot, -1 if none
	Args  []int
	Guard int // predicate slot, -1 if unguarded

	Const int64
	Bits  int // datapath width for area accounting
	ChID  int // program channel id, -1
	LSU   int // LSU site index, -1
	Local int // local array index, -1
	Dim   int
	Lib   *kir.LibFunc
	IBuf  any
	// StateIdx indexes the unit's intrinsic-state table for OpIBufLogic ops
	// (dense per kernel; see XKernel.NumIBufStates). -1 for other kinds.
	StateIdx int

	// Pinned ops act as scheduling barriers: they stay in program order
	// relative to every neighbouring op.
	Pinned bool

	Start int // scheduled stage within the segment
	Lat   int // scheduled latency
	// ForwardCarried lists carried-variable indexes whose Next slot this op
	// defines; the simulator forwards the value to the successor iteration.
	ForwardCarried []int
}

// String renders the op for logs and tests.
func (o *XOp) String() string {
	return fmt.Sprintf("%s@%d", o.Kind, o.Start)
}

// WalkOps visits every op in the region tree.
func (r *XRegion) WalkOps(fn func(*XOp)) {
	for _, it := range r.Items {
		switch it := it.(type) {
		case *Segment:
			for _, op := range it.Ops {
				fn(op)
			}
		case *XRegion:
			it.WalkOps(fn)
		}
	}
}

// WalkRegions visits the region and all nested regions, outermost first.
func (r *XRegion) WalkRegions(fn func(*XRegion)) {
	fn(r)
	for _, it := range r.Items {
		if sub, ok := it.(*XRegion); ok {
			sub.WalkRegions(fn)
		}
	}
}
