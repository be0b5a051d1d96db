package sim

import (
	"fmt"
	"slices"

	"oclfpga/internal/hls"
	"oclfpga/internal/obs/query"
)

// Breakpoints (DESIGN.md §14): the drive loop checks the specs Options.Breaks
// arms on every real tick and, inside a fast-forward window, at each break's
// deadline — cycle=N at N, chan:X.stall>K at since+K+1, unit:U.state=S on
// the window's first cycle (a blockage recorded the cycle before goes stale
// there); len>K cannot change in a quiescent window. So the halt is the same
// cycle and state with fast-forward on or off.

// BreakHit reports the first spec that fired.
type BreakHit struct {
	// Spec is the firing spec in canonical syntax (Break.String()).
	Spec  string `json:"spec"`
	Cycle int64  `json:"cycle"`
	Unit  string `json:"unit,omitempty"`
	Chan  string `json:"chan,omitempty"`
	Dir   string `json:"dir,omitempty"`
	// Value is the observed quantity: the stall length for stall breaks, the
	// occupancy for len breaks, the cycle for cycle and unit-state breaks.
	Value int64 `json:"value"`
}

// BreakError is what every drive call returns once an armed break fired: the
// machine stays halted at Hit.Cycle, so a host phase driving it unwinds.
type BreakError struct{ Hit *BreakHit }

func (e *BreakError) Error() string {
	return fmt.Sprintf("sim: halted at break %s (cycle %d)", e.Hit.Spec, e.Hit.Cycle)
}

// compiledBreak is a spec with its target resolved to runtime handles.
type compiledBreak struct {
	b    query.Break
	chID int // program channel id for chan breaks
}

// armBreaks resolves the specs' channel targets and checks their unit
// targets against the design (units not yet launched resolve when checked).
func (m *Machine) armBreaks(breaks []query.Break) error {
	for _, b := range breaks {
		cb := compiledBreak{b: b, chID: -1}
		switch b.Kind {
		case query.BreakChanStall, query.BreakChanLen:
			c := m.d.Program.ChanByName(b.Target)
			if c == nil {
				return fmt.Errorf("sim: break %q: unknown channel %q", b, b.Target)
			}
			cb.chID = c.ID
		case query.BreakUnitState:
			if !slices.ContainsFunc(m.d.Kernels, func(xk *hls.XKernel) bool { return xk.UnitName() == b.Target }) {
				return fmt.Errorf("sim: break %q: unknown unit %q", b, b.Target)
			}
		}
		m.breaks = append(m.breaks, cb)
	}
	return nil
}

func (m *Machine) unitByName(name string) (found *Unit) {
	m.eachUnit(func(u *Unit) {
		if found == nil && u.xk.UnitName() == name {
			found = u
		}
	})
	return found
}

// breakDeadline is the earliest cycle after m.cycle inside the open window
// at which an armed break could fire (wakeInf when none can).
func (m *Machine) breakDeadline() int64 {
	d := wakeInf
	for i := range m.breaks {
		cb := &m.breaks[i]
		c := wakeInf
		switch cb.b.Kind {
		case query.BreakCycle:
			c = cb.b.N
		case query.BreakUnitState:
			c = m.win.from + 1
		case query.BreakChanStall:
			m.eachUnit(func(u *Unit) {
				if m.stallWatched(u, cb) && u.block.since+cb.b.N+1 < c {
					c = u.block.since + cb.b.N + 1
				}
			})
		}
		if c > m.cycle && c < d {
			d = c
		}
	}
	return d
}

// eachUnit visits the autorun units, then every launch in launch order —
// the order break checks scan, so the first hit is deterministic.
func (m *Machine) eachUnit(fn func(u *Unit)) {
	for _, u := range m.units {
		fn(u)
	}
	for _, u := range m.launched {
		fn(u)
	}
}

// checkBreaks returns the first armed spec that holds at m.cycle, in spec
// order; within a spec, units in creation order.
func (m *Machine) checkBreaks() *BreakHit {
	for i := range m.breaks {
		cb := &m.breaks[i]
		switch cb.b.Kind {
		case query.BreakCycle:
			if m.cycle == cb.b.N {
				return &BreakHit{Spec: cb.b.String(), Cycle: m.cycle, Value: m.cycle}
			}
		case query.BreakChanLen:
			if n := m.chans[cb.chID].Len(); int64(n) > cb.b.N {
				return &BreakHit{Spec: cb.b.String(), Cycle: m.cycle, Chan: cb.b.Target, Value: int64(n)}
			}
		case query.BreakChanStall:
			var hit *BreakHit
			m.eachUnit(func(u *Unit) {
				if waited := m.cycle - u.block.since; hit == nil && m.stallWatched(u, cb) && waited > cb.b.N {
					hit = &BreakHit{Spec: cb.b.String(), Cycle: m.cycle,
						Unit: u.xk.UnitName(), Chan: cb.b.Target, Dir: u.block.dir, Value: waited}
				}
			})
			if hit != nil {
				return hit
			}
		case query.BreakUnitState:
			if u := m.unitByName(cb.b.Target); u != nil && m.unitStateName(u) == cb.b.State {
				return &BreakHit{Spec: cb.b.String(), Cycle: m.cycle, Unit: cb.b.Target, Value: m.cycle}
			}
		}
	}
	return nil
}

// stallWatched reports whether u is blocked this very cycle on the stall
// break's channel, in the watched direction.
func (m *Machine) stallWatched(u *Unit, cb *compiledBreak) bool {
	b := &u.block
	return b.op != nil && b.chID == cb.chID && b.last == m.cycle && (cb.b.Dir == "" || b.dir == cb.b.Dir)
}
