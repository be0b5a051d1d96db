package sim

import (
	"fmt"
	"slices"

	"oclfpga/internal/fault"
	"oclfpga/internal/hls"
	"oclfpga/internal/obs"
)

// faultRuntime is the machine-side state of an installed fault plan: events
// resolved against the design, plus reference counts so overlapping events
// on the same target compose instead of cancelling each other.
type faultRuntime struct {
	plan   *fault.Plan
	events []resolvedEvent

	readFrozen  map[int]int // chID -> active freeze-read event count
	writeFrozen map[int]int
	dropNB      map[int]int
	stuckCnt    map[unitKey]int // active stuck event count per target

	frozenReadSince  map[int]int64
	frozenWriteSince map[int]int64
	stuckSince       map[unitKey]int64

	memDelay int64 // currently applied extra latency
}

// unitKey is a resolved stuck/skew target: one compute unit of a kernel, or
// every unit of it when cu is -1.
type unitKey struct {
	kernel string
	cu     int
}

func (k unitKey) covers(xk *hls.XKernel) bool {
	return k.kernel == xk.Name && (k.cu < 0 || k.cu == xk.CU)
}

type resolvedEvent struct {
	ev      fault.Event
	chID    int     // resolved channel id, -1 for kernel-targeted events
	unit    unitKey // resolved stuck/skew target
	applied bool
	active  bool
}

// installFaults resolves every event target against the design. Unknown
// targets are errors: a fault plan aimed at nothing would silently test
// nothing.
func (m *Machine) installFaults(p *fault.Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	fr := &faultRuntime{
		plan:             p,
		readFrozen:       map[int]int{},
		writeFrozen:      map[int]int{},
		dropNB:           map[int]int{},
		stuckCnt:         map[unitKey]int{},
		frozenReadSince:  map[int]int64{},
		frozenWriteSince: map[int]int64{},
		stuckSince:       map[unitKey]int64{},
	}
	for _, ev := range p.Events {
		re := resolvedEvent{ev: ev, chID: -1}
		switch {
		case ev.Kind.ChannelFault():
			c := m.d.Program.ChanByName(ev.Target)
			if c == nil {
				return fmt.Errorf("sim: fault plan targets unknown channel %q", ev.Target)
			}
			re.chID = c.ID
		case ev.Kind == fault.StuckUnit || ev.Kind == fault.LaunchSkew:
			// A kernel name targets every compute unit of the kernel; a unit
			// name ("k[1]", as reports and breakpoints spell it) targets one.
			i := slices.IndexFunc(m.d.Kernels, func(xk *hls.XKernel) bool {
				return xk.Name == ev.Target || xk.UnitName() == ev.Target
			})
			if i < 0 {
				return fmt.Errorf("sim: fault plan targets unknown kernel or unit %q", ev.Target)
			}
			re.unit = unitKey{kernel: m.d.Kernels[i].Name, cu: -1}
			if ev.Target != re.unit.kernel {
				re.unit.cu = m.d.Kernels[i].CU
			}
		}
		if ev.Kind == fault.LaunchSkew {
			// launch skew is inherently a launch-time property: delay the
			// autorun units now, reproducing the §3.1 counter-skew spike
			for _, u := range m.units {
				if re.unit.covers(u.xk) {
					u.startAt += ev.Value
				}
			}
			re.applied = true
			if m.obs != nil {
				m.obs.rec.Instant(obs.KindFault, "fault:"+ev.Target, ev.Kind.String(),
					m.cycle, fmt.Sprintf("value=%d", ev.Value))
			}
		}
		fr.events = append(fr.events, re)
	}
	m.faults = fr
	return nil
}

// applyFaults transitions fault effects on and off for the current cycle.
// Called at the top of every tick, before channels snapshot their state, so
// a freeze triggered at cycle N is visible to cycle N's reads.
func (m *Machine) applyFaults() {
	fr := m.faults
	if fr == nil {
		return
	}
	now := m.cycle
	var memDelay int64
	for i := range fr.events {
		re := &fr.events[i]
		ev := re.ev
		switch ev.Kind {
		case fault.DepthOverride:
			if !re.applied && now >= ev.At {
				m.chans[re.chID].OverrideDepth(int(ev.Value))
				re.applied = true
				if m.obs != nil {
					m.obs.rec.Instant(obs.KindFault, "fault:"+ev.Target, ev.Kind.String(),
						now, fmt.Sprintf("value=%d", ev.Value))
				}
			}
		case fault.LaunchSkew:
			// applied at install time
		case fault.MemDelay:
			act := ev.ActiveAt(now)
			if act && ev.Value > memDelay {
				memDelay = ev.Value
			}
			// re.active is otherwise unused for aggregate mem-delay events;
			// repurpose it to edge-detect the window for the timeline
			if m.obs != nil && act != re.active {
				re.active = act
				m.obsFaultEdge(i, re, now)
			}
		default:
			active := ev.ActiveAt(now)
			if active == re.active {
				continue
			}
			re.active = active
			if m.obs != nil {
				m.obsFaultEdge(i, re, now)
			}
			delta := -1
			if active {
				delta = 1
			}
			switch ev.Kind {
			case fault.FreezeRead:
				fr.readFrozen[re.chID] += delta
				frozen := fr.readFrozen[re.chID] > 0
				m.chans[re.chID].SetReadFrozen(frozen)
				if frozen && delta > 0 && fr.readFrozen[re.chID] == 1 {
					fr.frozenReadSince[re.chID] = now
				}
			case fault.FreezeWrite:
				fr.writeFrozen[re.chID] += delta
				frozen := fr.writeFrozen[re.chID] > 0
				m.chans[re.chID].SetWriteFrozen(frozen)
				if frozen && delta > 0 && fr.writeFrozen[re.chID] == 1 {
					fr.frozenWriteSince[re.chID] = now
				}
			case fault.DropWriteNB:
				fr.dropNB[re.chID] += delta
				m.chans[re.chID].SetDropNB(fr.dropNB[re.chID] > 0)
			case fault.StuckUnit:
				fr.stuckCnt[re.unit] += delta
				if delta > 0 && fr.stuckCnt[re.unit] == 1 {
					fr.stuckSince[re.unit] = now
				}
			}
		}
	}
	if memDelay != fr.memDelay {
		m.Mem.SetExtraLatency(memDelay)
		fr.memDelay = memDelay
	}
}

// stuckKeys are the two targets that can hold a unit: its kernel, and the
// unit itself.
func stuckKeys(u *Unit) [2]unitKey {
	return [2]unitKey{{kernel: u.xk.Name, cu: -1}, {kernel: u.xk.Name, cu: u.xk.CU}}
}

// stuck reports whether the unit is held by an active StuckUnit fault this
// cycle. It stays inlinable: every unit asks every tick.
func (m *Machine) stuck(u *Unit) bool {
	return m.faults != nil && m.faults.holds(u)
}

func (fr *faultRuntime) holds(u *Unit) bool {
	for _, k := range stuckKeys(u) {
		if fr.stuckCnt[k] > 0 {
			return true
		}
	}
	return false
}

// stuckSinceCycle returns when the unit's stuck fault engaged: the earliest
// of the active faults on its kernel and on the unit itself.
func (m *Machine) stuckSinceCycle(u *Unit) int64 {
	since := int64(-1)
	for _, k := range stuckKeys(u) {
		if m.faults.stuckCnt[k] > 0 && (since < 0 || m.faults.stuckSince[k] < since) {
			since = m.faults.stuckSince[k]
		}
	}
	return max(since, 0)
}

// frozenBy reports whether the channel endpoint the unit is blocked on is
// frozen by fault injection, and since when.
func (m *Machine) frozenBy(chID int, dir string) (since int64, frozen bool) {
	if m.faults == nil || chID < 0 {
		return 0, false
	}
	switch dir {
	case "read":
		if m.faults.readFrozen[chID] > 0 {
			return m.faults.frozenReadSince[chID], true
		}
	case "write":
		if m.faults.writeFrozen[chID] > 0 {
			return m.faults.frozenWriteSince[chID], true
		}
	}
	return 0, false
}

// channelFrozen reports whether either endpoint of the channel is currently
// frozen ("read", "write", or "" when thawed).
func (m *Machine) channelFrozen(chID int) string {
	if m.faults == nil {
		return ""
	}
	if m.faults.readFrozen[chID] > 0 {
		return "read"
	}
	if m.faults.writeFrozen[chID] > 0 {
		return "write"
	}
	return ""
}
