package sim

import (
	"fmt"
	"math"

	"oclfpga/internal/channel"
	"oclfpga/internal/fault"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
)

// Time-travel state capture (DESIGN.md §14). StateDump snapshots the
// machine's observable state — unit states, channel occupancies, LSU queues,
// pending fault windows — as one deterministic document, and StateHash
// digests the same fields into the fingerprint checkpoints carry. Everything
// captured here is fast-forward-invariant: counters the batch path replays
// exactly, cycle-exact fault transitions, and blocked-op bookkeeping whose
// batch update mirrors the per-cycle path (see fastforward.go). Simulation-
// mode metadata (jump counts, observability state) is deliberately excluded,
// which is what makes a dump at cycle N byte-identical whether the machine
// stepped, skipped, or rewound its way there.

// MachineState is one cycle's full machine snapshot.
type MachineState struct {
	Design     string `json:"design"`
	DesignHash string `json:"designHash"` // FNV-1a over the schedule dump, hex
	Cycle      int64  `json:"cycle"`
	StateHash  string `json:"stateHash"` // Machine.StateHash, hex
	// ActiveUnits counts launched units still running (0 = run complete).
	ActiveUnits int            `json:"activeUnits"`
	Units       []UnitState    `json:"units"`
	Channels    []ChannelState `json:"channels"`
	Faults      []FaultState   `json:"faults,omitempty"`
}

// UnitState is one compute-unit activation's snapshot.
type UnitState struct {
	Unit       string `json:"unit"`
	Kernel     string `json:"kernel"`
	Mode       string `json:"mode"`
	State      string `json:"state"` // pending | running | blocked | done
	StartAt    int64  `json:"startAt"`
	StartedAt  int64  `json:"startedAt,omitempty"`
	FinishedAt int64  `json:"finishedAt,omitempty"`
	GlobalSize int64  `json:"globalSize,omitempty"`
	IssuedWI   int64  `json:"issuedWI,omitempty"`
	DoneWI     int64  `json:"doneWI,omitempty"`
	// Blocked reports the op the unit is currently waiting on (nil when the
	// unit progressed within the last cycle — the DeadlockReport convention).
	Blocked *BlockedState `json:"blocked,omitempty"`
	LSUs    []LSUState    `json:"lsus,omitempty"`
	Locals  []LocalState  `json:"locals,omitempty"`
}

// BlockedState describes a unit's current blocked operation.
type BlockedState struct {
	Op     string `json:"op"`
	Chan   string `json:"chan,omitempty"`
	Dir    string `json:"dir,omitempty"` // read | write for channel ops
	Since  int64  `json:"since"`
	Waited int64  `json:"waited"`
}

// LSUState is one access site's load/store-unit snapshot, including the
// posted-store queue depth at the capture cycle.
type LSUState struct {
	Array         string `json:"array"`
	Kind          string `json:"kind"`
	PendingStores int    `json:"pendingStores"`
	mem.LSUStats
}

// LocalState is one on-chip local memory's traffic counters.
type LocalState struct {
	Name   string `json:"name"`
	Reads  int64  `json:"reads"`
	Writes int64  `json:"writes"`
}

// ChannelState is one channel's occupancy and statistics snapshot.
type ChannelState struct {
	Name  string `json:"name"`
	Depth int    `json:"depth"`
	Len   int    `json:"len"`
	channel.Stats
}

// FaultState is one installed fault event's window status at the capture
// cycle. Spec is the event in fault.ParseSpec syntax; NextBoundary is the
// next cycle its activation can change (0 when no transition remains).
type FaultState struct {
	Spec         string `json:"spec"`
	Active       bool   `json:"active"`
	Applied      bool   `json:"applied,omitempty"` // point events only
	NextBoundary int64  `json:"nextBoundary,omitempty"`
}

// fnv1aOffset/fnv1aPrime are the standard 64-bit FNV-1a parameters; the
// hasher is hand-rolled (no hash/fnv Writer) so checkpoint capture allocates
// nothing on the simulation path.
const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

type stateHasher uint64

func newStateHasher() stateHasher { return fnv1aOffset }

func (h *stateHasher) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnv1aPrime
		v >>= 8
	}
	*h = stateHasher(x)
}

func (h *stateHasher) i64(v int64) { h.u64(uint64(v)) }

func (h *stateHasher) boolean(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *stateHasher) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnv1aPrime
	}
	*h = stateHasher(x)
	h.u64(uint64(len(s)))
}

// DesignHash fingerprints the loaded design: FNV-1a over the schedule dump,
// which covers kernels, scheduling, channel depths, and LSU selection — the
// things that must match for a rewind's re-execution to be the same run.
// Computed once per machine.
func (m *Machine) DesignHash() uint64 {
	if m.dHash == 0 {
		h := newStateHasher()
		h.str(m.d.Program.Name)
		h.str(m.d.DumpSchedule())
		m.dHash = uint64(h)
		if m.dHash == 0 {
			m.dHash = 1 // keep 0 as the "not yet computed" sentinel
		}
	}
	return m.dHash
}

// faultSeed returns the installed fault plan's seed (0 when no plan).
func (m *Machine) faultSeed() int64 {
	if m.opts.Fault == nil {
		return 0
	}
	return m.opts.Fault.Seed
}

// StateHash digests the machine's fast-forward-invariant observable state:
// the cycle clock, per-channel occupancy and statistics, per-unit progress
// and blocked-op bookkeeping, per-site LSU counters and posted-store queue
// depths, local-memory traffic, and fault window status. It hashes exactly
// the fields StateDump reports, so a matching hash means a matching dump.
func (m *Machine) StateHash() uint64 {
	h := newStateHasher()
	h.i64(m.cycle)
	h.u64(uint64(len(m.active)))
	for _, ch := range m.chans {
		h.u64(uint64(ch.Len()))
		st := ch.Stats()
		h.i64(st.Writes)
		h.i64(st.Reads)
		h.i64(st.WriteStalls)
		h.i64(st.ReadStalls)
		h.i64(st.Dropped)
		h.u64(uint64(st.MaxOccupancy))
	}
	for _, u := range m.units {
		m.hashUnit(&h, u)
	}
	for _, u := range m.launched {
		m.hashUnit(&h, u)
	}
	if m.faults != nil {
		for i := range m.faults.events {
			re := &m.faults.events[i]
			h.boolean(re.applied)
			// computed, not re.active: the runtime's MemDelay edge detection
			// only maintains re.active when observability is attached
			h.boolean(re.ev.ActiveAt(m.cycle))
		}
	}
	return uint64(h)
}

func (m *Machine) hashUnit(h *stateHasher, u *Unit) {
	h.i64(u.startAt)
	h.boolean(u.started)
	h.i64(u.startedAt)
	h.i64(u.finishedAt)
	h.i64(u.globalSize)
	h.i64(u.issuedWI)
	h.i64(u.doneWI)
	h.boolean(u.topDone)
	b := &u.block
	h.boolean(b.op != nil)
	if b.op != nil {
		h.u64(uint64(int64(b.chID)))
		h.str(b.dir)
		h.i64(b.since)
		h.i64(b.last)
	}
	for _, lsu := range u.lsus {
		if lsu == nil {
			continue
		}
		st := lsu.Stats()
		h.i64(st.Loads)
		h.i64(st.Stores)
		h.i64(st.LineFetches)
		h.i64(st.CoalesceHits)
		h.i64(st.TotalLoadLat)
		h.i64(st.MaxLoadLat)
		h.i64(st.StoreStalls)
		h.u64(uint64(lsu.PendingStores(m.cycle)))
	}
	for _, lm := range u.locals {
		h.i64(lm.Reads)
		h.i64(lm.Writes)
	}
}

// StateDump snapshots the machine as one deterministic document. Units are
// reported in creation order: autorun units first, then launches in launch
// order (finished launches included — unlike m.active, the launched list
// never drops them).
func (m *Machine) StateDump() *MachineState {
	ms := &MachineState{
		Design:      m.d.Program.Name,
		DesignHash:  fmt.Sprintf("%016x", m.DesignHash()),
		Cycle:       m.cycle,
		StateHash:   fmt.Sprintf("%016x", m.StateHash()),
		ActiveUnits: len(m.active),
	}
	for _, u := range m.units {
		ms.Units = append(ms.Units, m.unitState(u))
	}
	for _, u := range m.launched {
		ms.Units = append(ms.Units, m.unitState(u))
	}
	for _, ch := range m.chans {
		ms.Channels = append(ms.Channels, ChannelState{
			Name:  ch.Name(),
			Depth: ch.Depth(),
			Len:   ch.Len(),
			Stats: ch.Stats(),
		})
	}
	if m.faults != nil {
		for i := range m.faults.events {
			re := &m.faults.events[i]
			fs := FaultState{Spec: re.ev.String(), Applied: re.applied}
			switch re.ev.Kind {
			case fault.DepthOverride, fault.LaunchSkew:
				// point events: applied is the whole story
			default:
				fs.Active = re.ev.ActiveAt(m.cycle)
			}
			if b := re.ev.NextBoundary(m.cycle); b < math.MaxInt64 {
				fs.NextBoundary = b
			}
			ms.Faults = append(ms.Faults, fs)
		}
	}
	return ms
}

// unitBlocked reports whether the unit's blocked-op record is current — the
// DeadlockReport convention: blocked this cycle or the one before.
func (m *Machine) unitBlocked(u *Unit) bool {
	return u.block.op != nil && u.block.last >= m.cycle-1
}

// unitStateName classifies a unit the way UnitState.State and
// unit:NAME.state=S breakpoints both report it.
func (m *Machine) unitStateName(u *Unit) string {
	switch {
	case !u.started:
		return "pending"
	case !u.auto && (u.finishedAt > 0 || u.Done()):
		return "done"
	case m.unitBlocked(u):
		return "blocked"
	default:
		return "running"
	}
}

func (m *Machine) unitState(u *Unit) UnitState {
	us := UnitState{
		Unit:       u.xk.UnitName(),
		Kernel:     u.xk.Name,
		Mode:       u.xk.Mode.String(),
		StartAt:    u.startAt,
		FinishedAt: u.finishedAt,
		GlobalSize: u.globalSize,
		IssuedWI:   u.issuedWI,
		DoneWI:     u.doneWI,
	}
	if u.started {
		us.StartedAt = u.startedAt
	}
	blocked := m.unitBlocked(u)
	us.State = m.unitStateName(u)
	if blocked {
		bs := &BlockedState{
			Op:     u.block.op.Kind.String(),
			Dir:    u.block.dir,
			Since:  u.block.since,
			Waited: m.cycle - u.block.since,
		}
		if u.block.chID >= 0 {
			bs.Chan = m.chans[u.block.chID].Name()
		}
		us.Blocked = bs
	}
	for i, lsu := range u.lsus {
		if lsu == nil {
			continue
		}
		site := u.xk.LSUs[i]
		us.LSUs = append(us.LSUs, LSUState{
			Array:         site.Arr.Name,
			Kind:          site.Kind.String(),
			PendingStores: lsu.PendingStores(m.cycle),
			LSUStats:      lsu.Stats(),
		})
	}
	for _, lm := range u.locals {
		us.Locals = append(us.Locals, LocalState{Name: lm.Name, Reads: lm.Reads, Writes: lm.Writes})
	}
	return us
}

// obsCheckpoint emits a rewind checkpoint instant at the current cycle. Like
// samples, checkpoint-grid cycles are fast-forward deadlines (the jump splits
// at each one), so the recorded state hash is exactly the per-cycle path's.
func (m *Machine) obsCheckpoint() {
	o := m.obs
	if o.kCkpt == 0 {
		o.kCkpt = o.rec.Intern(obs.KindCheckpoint)
		o.ckptTrack = o.rec.Intern(obs.CheckpointTrack)
		o.ckptName = o.rec.Intern(obs.CheckpointName)
	}
	detail := obs.FormatCheckpointDetail(obs.Checkpoint{
		Cycle:      m.cycle,
		DesignHash: m.DesignHash(),
		Seed:       m.faultSeed(),
		StateHash:  m.StateHash(),
		FFJumps:    m.ffJumps,
		FFSkipped:  m.ffSkipped,
	})
	o.rec.InstantID(o.kCkpt, o.ckptTrack, o.ckptName, m.cycle, obs.LitDetail(o.rec.Intern(detail)))
}
