package sim

import (
	"fmt"
	"sort"
	"strings"

	"oclfpga/internal/hls"
	"oclfpga/internal/kir"
	"oclfpga/internal/obs"
)

// Reason classifies why a Run gave up.
type Reason string

const (
	// ReasonStallLimit: no launched kernel made progress for StallLimit
	// cycles — the classic hung-fabric symptom the paper's debugging flow
	// targets.
	ReasonStallLimit Reason = "stall-limit"
	// ReasonMaxCycles: the run exceeded its cycle ceiling while kernels were
	// still (slowly) progressing.
	ReasonMaxCycles Reason = "max-cycles"
	// ReasonBudget: a bounded RunFor exhausted its budget. Not necessarily a
	// hang — DeadlockError.Timeout() reports true so callers can retry.
	ReasonBudget Reason = "budget"
	// ReasonWallClock: a supervisor's wall-clock watchdog expired while the
	// run was still in flight. The simulation itself is consistent (the
	// supervisor stops it between bounded slices); the report captures what
	// the fabric was doing when real time ran out.
	ReasonWallClock Reason = "wall-clock"
	// ReasonPanic: the run's goroutine panicked mid-simulation and a
	// supervisor converted the crash into a diagnosis instead of letting it
	// take the process down. Machine state may be mid-tick; the report is
	// best-effort.
	ReasonPanic Reason = "panic"
)

// WaitState is one compute unit's snapshot at diagnosis time: what op it is
// blocked on, which channel, and for how long. This is the per-unit row of
// the paper-style hang report.
type WaitState struct {
	Unit    string `json:"unit"` // unit name ("kernel" or "kernel[cu]")
	Kernel  string `json:"kernel"`
	CU      int    `json:"cu"`
	Autorun bool   `json:"autorun,omitempty"`

	Op        string `json:"op,omitempty"`        // blocked op (kir op name), "" if none recorded
	Channel   string `json:"channel,omitempty"`   // channel name when blocked on a channel op
	Dir       string `json:"dir,omitempty"`       // "read" or "write"
	Occupancy int    `json:"occupancy,omitempty"` // channel occupancy at diagnosis
	Depth     int    `json:"depth,omitempty"`     // channel capacity (0 = register channel)
	Since     int64  `json:"since"`               // first cycle of the current consecutive blockage
	Waited    int64  `json:"waited"`              // cycles spent in the current blockage

	Stuck  bool `json:"stuck,omitempty"`  // held by an injected stuck-unit fault
	Frozen bool `json:"frozen,omitempty"` // blocked endpoint frozen by an injected channel fault
}

func (w WaitState) describe() string {
	switch {
	case w.Stuck:
		return fmt.Sprintf("held by injected stuck-unit fault since cycle %d", w.Since)
	case w.Channel != "":
		s := fmt.Sprintf("blocked on channel %s %q (occupancy %d/%d) for %d cycles",
			w.Dir, w.Channel, w.Occupancy, w.Depth, w.Waited)
		if w.Frozen {
			s += fmt.Sprintf(" [%s endpoint frozen by fault injection]", w.Dir)
		}
		return s
	case w.Op != "":
		return fmt.Sprintf("blocked on %s for %d cycles", w.Op, w.Waited)
	default:
		return "no blocked op recorded (pipeline idle or waiting on schedule)"
	}
}

// DeadlockReport is the structured replacement for the old opaque deadlock
// error: every waiting unit's state, the wait-for graph between them, any
// circular wait, and a one-line blame verdict.
type DeadlockReport struct {
	Reason     Reason `json:"reason"`
	Cycle      int64  `json:"cycle"` // simulation time at diagnosis
	StallLimit int64  `json:"stallLimit"`
	MaxCycles  int64  `json:"maxCycles"`
	Active     int    `json:"active"` // launched kernels still running

	Waits []WaitState `json:"waits,omitempty"`
	// Edges are wait-for relations: Edges[i] = [waiter, waited-on unit].
	// A unit blocked writing channel c waits for c's readers; a unit blocked
	// reading waits for c's writers.
	Edges [][2]string `json:"edges,omitempty"`
	// CycleUnits is a circular wait among the waiting units (first repeated
	// unit omitted), empty when none was found.
	CycleUnits []string `json:"cycleUnits,omitempty"`
	// Blame is the one-line verdict naming the most likely culprit.
	Blame string `json:"blame"`
}

// String renders the report in the compiler-log style of the paper's
// profiler output.
func (r *DeadlockReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== hang diagnosis @ cycle %d (%s) ==\n", r.Cycle, r.reasonLine())
	if len(r.Waits) == 0 {
		b.WriteString("  no waiting units recorded\n")
	}
	w := 0
	for _, ws := range r.Waits {
		if len(ws.Unit) > w {
			w = len(ws.Unit)
		}
	}
	for _, ws := range r.Waits {
		tag := "unit"
		if ws.Autorun {
			tag = "auto"
		}
		fmt.Fprintf(&b, "  %s %-*s : %s\n", tag, w, ws.Unit, ws.describe())
	}
	for _, e := range r.Edges {
		fmt.Fprintf(&b, "  wait-for: %s -> %s\n", e[0], e[1])
	}
	if len(r.CycleUnits) > 0 {
		fmt.Fprintf(&b, "  circular wait: %s -> %s\n",
			strings.Join(r.CycleUnits, " -> "), r.CycleUnits[0])
	}
	fmt.Fprintf(&b, "  verdict: %s\n", r.Blame)
	return b.String()
}

func (r *DeadlockReport) reasonLine() string {
	switch r.Reason {
	case ReasonStallLimit:
		return fmt.Sprintf("no progress for %d cycles", r.StallLimit)
	case ReasonMaxCycles:
		return fmt.Sprintf("exceeded %d-cycle limit with %d kernels running", r.MaxCycles, r.Active)
	case ReasonBudget:
		return "run budget exhausted"
	case ReasonWallClock:
		return fmt.Sprintf("wall-clock watchdog expired with %d kernels running", r.Active)
	case ReasonPanic:
		return "run goroutine panicked"
	default:
		return string(r.Reason)
	}
}

// DeadlockError wraps a DeadlockReport as the error returned by Run/RunFor.
type DeadlockError struct {
	Report *DeadlockReport
}

// Timeout reports whether the error is a bounded-run budget expiry (a retry
// may still succeed) rather than a diagnosed hang.
func (e *DeadlockError) Timeout() bool { return e.Report.Reason == ReasonBudget }

func (e *DeadlockError) Error() string {
	r := e.Report
	var head string
	switch r.Reason {
	case ReasonStallLimit:
		head = fmt.Sprintf("sim: deadlock: no progress for %d cycles at cycle %d", r.StallLimit, r.Cycle)
	case ReasonMaxCycles:
		head = fmt.Sprintf("sim: exceeded %d cycles with %d kernels still running", r.MaxCycles, r.Active)
	case ReasonBudget:
		head = fmt.Sprintf("sim: run budget exhausted at cycle %d with %d kernels still running", r.Cycle, r.Active)
	case ReasonWallClock:
		head = fmt.Sprintf("sim: wall-clock watchdog expired at cycle %d with %d kernels still running", r.Cycle, r.Active)
	case ReasonPanic:
		head = fmt.Sprintf("sim: run goroutine panicked at cycle %d", r.Cycle)
	default:
		head = fmt.Sprintf("sim: run aborted (%s) at cycle %d", r.Reason, r.Cycle)
	}
	var waits []string
	for _, w := range r.Waits {
		waits = append(waits, fmt.Sprintf("%s %s", w.Unit, w.describe()))
	}
	if len(waits) > 0 {
		head += ": " + strings.Join(waits, "; ")
	}
	if r.Blame != "" {
		head += " — " + r.Blame
	}
	return head
}

// DeadlockReport diagnoses the machine's current wait structure. It is
// called by run() when giving up, and may also be called directly on a
// machine to inspect a live (stepped) simulation. The wait durations it
// renders come from blocked-since watermarks that fast-forward maintains
// across skipped windows (batchAdvance), and run() always steps the
// stall-limit deadline cycle for real, so reports carry the same cycle
// numbers whether or not quiescent windows were jumped.
func (m *Machine) DeadlockReport(reason Reason) *DeadlockReport {
	r := &DeadlockReport{
		Reason:     reason,
		Cycle:      m.cycle,
		StallLimit: m.opts.StallLimit,
		MaxCycles:  m.opts.MaxCycles,
		Active:     len(m.active),
	}

	// Launched kernels are always reported (they are what Run is waiting
	// for); autorun units only when they are demonstrably wedged — blocked
	// this cycle or held by a fault — to keep the report focused.
	for _, u := range m.active {
		r.Waits = append(r.Waits, m.waitState(u, false))
	}
	for _, u := range m.units {
		ws := m.waitState(u, true)
		if ws.Stuck || ws.Op != "" {
			r.Waits = append(r.Waits, ws)
		}
	}

	readers, writers := m.chanEndpoints()
	waiting := map[string]bool{}
	for _, w := range r.Waits {
		waiting[w.Unit] = true
	}
	adj := map[string][]string{}
	for _, w := range r.Waits {
		if w.Channel == "" {
			continue
		}
		chID := m.d.Program.ChanByName(w.Channel).ID
		var peers []string
		if w.Dir == "write" {
			peers = readers[chID]
		} else {
			peers = writers[chID]
		}
		for _, p := range peers {
			if p == w.Unit {
				continue
			}
			r.Edges = append(r.Edges, [2]string{w.Unit, p})
			if waiting[p] {
				adj[w.Unit] = append(adj[w.Unit], p)
			}
		}
	}
	r.CycleUnits = findCycle(adj)
	r.Blame = m.blameVerdict(r, readers, writers)
	// A budget expiry is a resumable pause, not a terminal diagnosis: a
	// supervisor slicing RunFor hits one per slice, and recording each would
	// make the telemetry stream depend on the slicing — breaking replay
	// recovery's byte-identity against an uninterrupted run. A panic is not
	// recorded either: the sink that panicked would receive the instant and
	// could panic again, losing the report this diagnosis returns.
	if m.obs != nil && reason != ReasonBudget && reason != ReasonPanic {
		m.obs.rec.Instant(obs.KindBlame, "diagnosis", string(reason), m.cycle, r.Blame)
	}
	return r
}

func (m *Machine) waitState(u *Unit, autorun bool) WaitState {
	ws := WaitState{
		Unit:    u.xk.UnitName(),
		Kernel:  u.xk.Name,
		CU:      u.xk.CU,
		Autorun: autorun,
	}
	if m.stuck(u) {
		ws.Stuck = true
		ws.Since = m.stuckSinceCycle(u)
		ws.Waited = m.cycle - ws.Since
		return ws
	}
	b := u.block
	// only a blockage observed on the latest completed cycle counts as
	// "currently waiting"
	if b.op == nil || b.last < m.cycle-1 {
		return ws
	}
	ws.Op = b.op.Kind.String()
	ws.Since = b.since
	ws.Waited = m.cycle - b.since
	if b.chID >= 0 {
		ws.Channel = m.d.Program.Chans[b.chID].Name
		ws.Dir = b.dir
		ch := m.chans[b.chID]
		ws.Occupancy = ch.Len()
		ws.Depth = ch.Depth()
		_, ws.Frozen = m.frozenBy(b.chID, b.dir)
	}
	return ws
}

// chanEndpoints derives, from the design's op trees, which units read and
// which write each channel — the static connectivity the wait-for graph
// needs.
func (m *Machine) chanEndpoints() (readers, writers map[int][]string) {
	readers, writers = map[int][]string{}, map[int][]string{}
	add := func(set map[int][]string, chID int, unit string) {
		for _, u := range set[chID] {
			if u == unit {
				return
			}
		}
		set[chID] = append(set[chID], unit)
	}
	for _, xk := range m.d.Kernels {
		name := xk.UnitName()
		xk.Root.WalkOps(func(op *hls.XOp) {
			if op.ChID < 0 {
				return
			}
			switch op.Kind {
			case kir.OpChanRead, kir.OpChanReadNB:
				add(readers, op.ChID, name)
			case kir.OpChanWrite, kir.OpChanWriteNB:
				add(writers, op.ChID, name)
			case kir.OpIBufLogic:
				// the HDL ibuffer intrinsic ingests its ChID channel
				add(readers, op.ChID, name)
			}
		})
	}
	return readers, writers
}

// findCycle returns one cycle in the wait-for graph (DFS three-colour),
// or nil. Node order is made deterministic by sorting.
func findCycle(adj map[string][]string) []string {
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	var cyc []string

	var dfs func(n string) bool
	dfs = func(n string) bool {
		color[n] = grey
		stack = append(stack, n)
		for _, p := range adj[n] {
			switch color[p] {
			case grey:
				// unwind the stack to the repeated node
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == p {
						cyc = append([]string{}, stack[i:]...)
						return true
					}
				}
			case white:
				if dfs(p) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return false
	}
	for _, n := range nodes {
		if color[n] == white && dfs(n) {
			return cyc
		}
	}
	return nil
}

// blameVerdict applies a fixed-priority heuristic: injected faults first
// (they are ground truth), then circular waits, then absent counterparts,
// then the longest wait.
func (m *Machine) blameVerdict(r *DeadlockReport, readers, writers map[int][]string) string {
	// 1. a waiting unit's blocked endpoint is frozen by fault injection
	for _, w := range r.Waits {
		if w.Frozen {
			side := "consumer"
			if w.Dir == "write" {
				side = "producer"
			}
			return fmt.Sprintf("fault injection froze the %s side of channel %q; unit %s %s",
				side, w.Channel, w.Unit, w.describe())
		}
	}
	// 1b. a waiting unit's channel has its *other* endpoint frozen (e.g. the
	// producer is blocked because the consumer's read side is frozen)
	for _, w := range r.Waits {
		if w.Channel == "" {
			continue
		}
		chID := m.d.Program.ChanByName(w.Channel).ID
		if side := m.channelFrozen(chID); side != "" {
			return fmt.Sprintf("fault injection froze the %s side of channel %q; unit %s %s",
				side, w.Channel, w.Unit, w.describe())
		}
	}
	// 2. a stuck unit
	for _, w := range r.Waits {
		if w.Stuck {
			return fmt.Sprintf("unit %s is held by an injected stuck-unit fault since cycle %d; everything downstream of it backs up", w.Unit, w.Since)
		}
	}
	// 3. circular wait
	if len(r.CycleUnits) > 0 {
		return fmt.Sprintf("circular wait: %s -> %s (channel capacities cannot satisfy the communication pattern; see §3.1 on compiler-altered channel depths)",
			strings.Join(r.CycleUnits, " -> "), r.CycleUnits[0])
	}
	// 4. counterpart finished or never launched
	running := map[string]bool{}
	for _, u := range m.units {
		running[u.xk.UnitName()] = true
	}
	for _, u := range m.active {
		running[u.xk.UnitName()] = true
	}
	for _, w := range r.Waits {
		if w.Channel == "" {
			continue
		}
		chID := m.d.Program.ChanByName(w.Channel).ID
		var peers []string
		role := "consumer"
		if w.Dir == "write" {
			peers = readers[chID]
		} else {
			peers = writers[chID]
			role = "producer"
		}
		if len(peers) == 0 {
			return fmt.Sprintf("channel %q has no %s in the design; unit %s can never proceed", w.Channel, role, w.Unit)
		}
		alive := false
		for _, p := range peers {
			if running[p] {
				alive = true
				break
			}
		}
		if !alive {
			return fmt.Sprintf("the %s of channel %q (%s) is not running (finished or never launched); unit %s %s",
				role, w.Channel, strings.Join(peers, ", "), w.Unit, w.describe())
		}
	}
	// 5. longest wait
	var longest *WaitState
	for i := range r.Waits {
		w := &r.Waits[i]
		if w.Op == "" {
			continue
		}
		if longest == nil || w.Waited > longest.Waited {
			longest = w
		}
	}
	if longest != nil {
		return fmt.Sprintf("longest wait: unit %s %s", longest.Unit, longest.describe())
	}
	switch r.Reason {
	case ReasonBudget:
		return "run budget exhausted; no unit is blocked — the workload may simply need more cycles"
	case ReasonWallClock:
		return "wall-clock watchdog expired; no unit is blocked — the workload may simply be slow to simulate"
	case ReasonPanic:
		return "run goroutine panicked; the report snapshots the fabric at the crash"
	}
	return "no unit reports a blocked op; the design may be spinning without forward progress"
}
