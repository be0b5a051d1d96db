package sim

import (
	"fmt"

	"oclfpga/internal/channel"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
)

// Observability wiring. The machine carries an optional obsState; every hook
// on the hot path is guarded by a single `m.obs != nil` check so a machine
// without Options.Observe pays one predictable branch, and the recorder is
// event-driven rather than cycle-driven, so — unlike the VCD recorder's
// cycle hook — enabling it does not force the per-cycle slow path.
//
// The hooks record through the recorder's interned-ID API: the event
// vocabulary (kinds, channel tracks, stall direction names, per-unit tracks)
// is interned once — at init, at launch, or lazily on a unit's first event —
// and each recorded event is one fixed-width append with no string
// concatenation or per-event allocation (see obs/flat.go). Sample snapshots
// pack their counters into the recorder's flat sample stream the same way
// (see obs/sampleflat.go).
//
// Fast-forward exactness contract: events are only emitted at cycles the
// machine executes for real in both modes (launches, fault boundaries, unit
// finishes, deadline and sample cycles), and the one piece of open state —
// channel stall spans — is batch-extended across skipped windows at exactly
// the points batchRegion charges the equivalent stall counters. The
// equivalence suite asserts timelines and samples are byte-identical with
// skipping on and off; fast-forward jump events, which exist only when
// skipping is on, live on the separate Timeline.FFJumps track.

// obsState is the per-machine observability state.
type obsState struct {
	rec         *obs.Recorder
	sampleEvery int64
	// nextSampleAt is the next sampling-grid cycle, kept in step by
	// obsEndTick and fastForward so the per-tick grid check is one equality
	// instead of a modulo.
	nextSampleAt int64
	// ckptEvery/nextCkptAt mirror the sampling grid for rewind checkpoints
	// (DESIGN.md §14): obsEndTick emits on the slow path, fastForward splits
	// its jumps at grid cycles so mid-window checkpoints capture exactly the
	// per-cycle state.
	ckptEvery  int64
	nextCkptAt int64
	// stalls tracks one open blocked-interval per channel endpoint,
	// indexed [chID][dir] with dir 0 = read, 1 = write.
	stalls [][2]stallSpan
	// launched remembers every launched unit so finalize and sampling can
	// visit them after they leave m.active.
	launched  []*Unit
	finalized bool
	// sinkErr is the downstream sink's Finalize error, surfaced through
	// Machine.ObserveErr.
	sinkErr error

	// Interned event vocabulary, resolved once at init so the hot path
	// records by ID.
	kLaunch, kUnitRun, kChanStall, kLineFetch obs.ID
	nLaunch, nRun                             obs.ID
	// Checkpoint vocabulary, interned lazily on the first emission so a
	// machine without checkpoints leaves the recorder's string table — and
	// therefore its flat snapshot — untouched.
	kCkpt, ckptTrack, ckptName obs.ID
	dirNames                   [2]obs.ID // read-stall, write-stall
	chanTracks                 []obs.ID  // "chan:<name>" by channel ID
	chanNames                  []obs.ID  // raw channel name by channel ID
}

// obsSiteID is a memory access site's sample vocabulary, interned once per
// unit (see obsSiteIDs) so the sampling walk records by ID.
type obsSiteID struct {
	arr, kind obs.ID
	isStore   bool
}

// stallSpan is one in-progress consecutive blockage of a channel endpoint.
// unit is the interned name of the compute unit whose refused attempt opened
// the span — the attribution key the analyze package groups by. Opening
// happens only on real ticks (the batch path merely extends), so the opener
// is identical with fast-forward on or off.
type stallSpan struct {
	since, last int64
	unit        obs.ID
	open        bool
}

// initObserve attaches a recorder; called from New after channels exist (so
// their tracks intern eagerly) and before faults install (so launch-skew
// instants land on the timeline).
func (m *Machine) initObserve(cfg *obs.Config) {
	rec := obs.NewRecorder(m.d.Program.Name, *cfg)
	o := &obsState{
		rec:         rec,
		sampleEvery: cfg.SampleEvery,
		stalls:      make([][2]stallSpan, len(m.chans)),
		kLaunch:     rec.Intern(obs.KindLaunch),
		kUnitRun:    rec.Intern(obs.KindUnitRun),
		kChanStall:  rec.Intern(obs.KindChanStall),
		kLineFetch:  rec.Intern(obs.KindLineFetch),
		nLaunch:     rec.Intern("launch"),
		nRun:        rec.Intern("run"),
		dirNames:    [2]obs.ID{rec.Intern("read-stall"), rec.Intern("write-stall")},
		chanTracks:  make([]obs.ID, len(m.chans)),
		chanNames:   make([]obs.ID, len(m.chans)),
	}
	for i := range m.chans {
		o.chanTracks[i] = rec.Intern("chan:" + m.d.Program.Chans[i].Name)
		o.chanNames[i] = rec.Intern(m.d.Program.Chans[i].Name)
	}
	o.nextSampleAt = -1 // never matches a real cycle
	if cfg.SampleEvery > 0 {
		o.nextSampleAt = cfg.SampleEvery
	}
	o.nextCkptAt = -1
	if cfg.CheckpointEvery > 0 {
		o.ckptEvery = cfg.CheckpointEvery
		o.nextCkptAt = cfg.CheckpointEvery
	}
	m.obs = o
}

// Observed reports whether the machine records an observability timeline.
func (m *Machine) Observed() bool { return m.obs != nil }

// obsUnitIDs returns the unit's interned track and name IDs, interning on
// first use (autorun units never pass through obsLaunch, so laziness covers
// both populations). A unit name is never empty, so ID zero means "unset".
func (m *Machine) obsUnitIDs(u *Unit) (track, name obs.ID) {
	if u.obsTrack == 0 {
		n := u.xk.UnitName()
		u.obsName = m.obs.rec.Intern(n)
		u.obsTrack = m.obs.rec.Intern("unit:" + n)
	}
	return u.obsTrack, u.obsName
}

// obsLaunch records a launch instant and binds line-fetch observers to the
// launch's freshly created LSUs.
func (m *Machine) obsLaunch(u *Unit) {
	o := m.obs
	o.launched = append(o.launched, u)
	track, _ := m.obsUnitIDs(u)
	o.rec.InstantID(o.kLaunch, track, o.nLaunch, m.cycle, obs.NoDetail)
	for i, lsu := range u.lsus {
		if lsu == nil {
			continue
		}
		site := u.xk.LSUs[i]
		// Interned once per launch; repeat launches of the same kernel
		// resolve to the same IDs.
		ltrack := o.rec.Intern(fmt.Sprintf("lsu:%s/%s#%d", u.xk.UnitName(), site.Arr.Name, i))
		lname := o.rec.Intern(site.Kind.String())
		kind := o.kLineFetch
		rec := o.rec
		lsu.OnLineFetch = func(now, ready int64) {
			rec.SpanID(kind, ltrack, lname, now, ready)
		}
	}
}

// obsUnitFinished closes the unit's run span.
func (m *Machine) obsUnitFinished(u *Unit) {
	track, _ := m.obsUnitIDs(u)
	m.obs.rec.SpanID(m.obs.kUnitRun, track, m.obs.nRun, u.startedAt, u.finishedAt)
}

// obsChanBlocked notes a refused blocking channel op at cycle now. Adjacent
// refused cycles accumulate into one span; a gap flushes the old span and
// opens a new one — mirroring Unit.noteBlockedOp's interval semantics, but
// tracked per channel endpoint so multi-segment ping-ponging (which restarts
// the per-unit clock every cycle on the slow path) cannot desynchronize the
// two fast-forward modes.
func (m *Machine) obsChanBlocked(u *Unit, chID, dir int, now int64) {
	s := &m.obs.stalls[chID][dir]
	if s.open {
		if s.last >= now-1 {
			if now > s.last {
				s.last = now
			}
			return
		}
		m.obsFlushStall(chID, dir)
	}
	_, name := m.obsUnitIDs(u)
	*s = stallSpan{since: now, last: now, unit: name, open: true}
}

// obsExtendStall batch-extends the open stall span across a skipped window
// (from, to]; called from batchRegion next to the stall-counter batch charge.
// The span is open with last == from — the quiescent tick at `from` executed
// for real and its refused attempt opened or extended it — but the guards
// keep a missed assumption from corrupting the record.
func (m *Machine) obsExtendStall(u *Unit, chID, dir int, from, to int64) {
	s := &m.obs.stalls[chID][dir]
	if !s.open {
		_, name := m.obsUnitIDs(u)
		*s = stallSpan{since: from, unit: name, open: true}
	}
	if to > s.last {
		s.last = to
	}
}

// obsFlushStall emits the endpoint's open span, if any, as a timeline event.
// The opening unit travels in the detail annotation ("unit=<name>", packed as
// an interned ID) — the stall's attribution to a compute unit, which the
// analyze package turns into per-(unit, op, channel) rows.
func (m *Machine) obsFlushStall(chID, dir int) {
	s := &m.obs.stalls[chID][dir]
	if !s.open {
		return
	}
	m.obs.rec.SpanDetailID(m.obs.kChanStall, m.obs.chanTracks[chID], m.obs.dirNames[dir],
		s.since, s.last, obs.UnitDetail(s.unit))
	s.open = false
}

// obsEndTick runs at the end of every real tick: it takes a metrics sample
// when the cycle lands on the sampling grid. Grid cycles inside a skipped
// window are sampled mid-jump by fastForward, which splits its batch advance
// at each one, so both paths see identical state.
func (m *Machine) obsEndTick() {
	o := m.obs
	if m.cycle == o.nextSampleAt {
		m.obsTakeSample()
		o.nextSampleAt += o.sampleEvery
	}
	if m.cycle == o.nextCkptAt {
		m.obsCheckpoint()
		o.nextCkptAt += o.ckptEvery
	}
}

// obsSiteIDs returns the unit's per-site sample vocabulary, interning it on
// first use.
func (m *Machine) obsSiteIDs(u *Unit) []obsSiteID {
	if u.obsSites == nil {
		u.obsSites = make([]obsSiteID, len(u.xk.LSUs))
		for i, site := range u.xk.LSUs {
			u.obsSites[i] = obsSiteID{
				arr:     m.obs.rec.Intern(site.Arr.Name),
				kind:    m.obs.rec.Intern(site.Kind.String()),
				isStore: site.IsStore,
			}
		}
	}
	return u.obsSites
}

// obsTakeSample snapshots the accumulated counters straight into the
// recorder's flat sample stream: channels with any activity or occupancy,
// access sites with any traffic, and local memories (where the ibuffer trace
// storage lives) with any traffic. Nothing here materializes a string or an
// entry struct — every identifier is a pre-interned ID.
func (m *Machine) obsTakeSample() {
	o := m.obs
	sw := o.rec.BeginSample(m.cycle)
	for i, ch := range m.chans {
		st := ch.Stats()
		if st == (channel.Stats{}) && ch.Len() == 0 {
			continue
		}
		sw.Channel(o.chanNames[i], ch.Len(), st)
	}
	for _, u := range m.units {
		m.obsSampleUnit(sw, u)
	}
	for _, u := range o.launched {
		m.obsSampleUnit(sw, u)
	}
	sw.Commit()
}

func (m *Machine) obsSampleUnit(sw obs.SampleWriter, u *Unit) {
	o := m.obs
	for i := range u.xk.LSUs {
		lsu := u.lsus[i]
		if lsu == nil {
			continue
		}
		st := lsu.Stats()
		if st == (mem.LSUStats{}) {
			continue
		}
		_, name := m.obsUnitIDs(u)
		site := m.obsSiteIDs(u)[i]
		sw.LSU(name, site.arr, site.kind, site.isStore, st)
	}
	for _, lm := range u.locals {
		if lm.Reads == 0 && lm.Writes == 0 {
			continue
		}
		sw.Local(o.rec.Intern(lm.Name), lm.Reads, lm.Writes)
	}
}

// obsFaultEdge records an injected fault switching on or off. Fault
// boundaries are never jumped across (nextBoundary), so edges land at their
// exact cycles in both fast-forward modes. This is a rare path (a handful of
// edges per run), so it stays on the string-typed window API.
func (m *Machine) obsFaultEdge(idx int, re *resolvedEvent, now int64) {
	key := fmt.Sprintf("fault#%d", idx)
	ev := re.ev
	if re.active {
		var detail string
		if ev.Value != 0 {
			detail = fmt.Sprintf("value=%d", ev.Value)
		}
		m.obs.rec.OpenWindow(key, obs.Event{
			Kind: obs.KindFault, Track: "fault:" + ev.Target,
			Name: ev.Kind.String(), Start: now, Detail: detail,
		})
	} else {
		// the last cycle the fault was active is the one before this edge
		m.obs.rec.CloseWindow(key, now-1)
	}
}

// obsFinalize closes the record: open stall spans flush in channel order,
// still-running units get run spans ending now, a terminal metrics sample
// lands on the current cycle, and the recorder seals remaining fault
// windows. Idempotent; triggered by Timeline/Samples/Series.
func (m *Machine) obsFinalize() {
	o := m.obs
	if o.finalized {
		return
	}
	o.finalized = true
	m.closeWindow() // a run paused inside a jump records it up to now
	for chID := range o.stalls {
		m.obsFlushStall(chID, 0)
		m.obsFlushStall(chID, 1)
	}
	for _, u := range m.units {
		if u.started {
			track, _ := m.obsUnitIDs(u)
			o.rec.SpanID(o.kUnitRun, track, o.nRun, u.startedAt, m.cycle)
		}
	}
	for _, u := range o.launched {
		if u.started && u.finishedAt == 0 {
			track, _ := m.obsUnitIDs(u)
			o.rec.SpanID(o.kUnitRun, track, o.nRun, u.startedAt, m.cycle)
		}
	}
	if o.sampleEvery > 0 && o.rec.LastSampleCycle() != m.cycle {
		m.obsTakeSample()
	}
	o.sinkErr = o.rec.Finalize(m.cycle)
}

// ObserveErr reports the downstream observability sink's Finalize error (nil
// before finalize, when observability is off, or when no sink failed). The
// in-memory record is unaffected by a failing sink — a full spill disk, say,
// never loses the buffered timeline.
func (m *Machine) ObserveErr() error {
	if m.obs == nil {
		return nil
	}
	return m.obs.sinkErr
}

// Observer finalizes the record and returns the underlying recorder, or nil
// when the machine was created without Options.Observe. This is the flat read
// path: consumers like the stall-attribution analysis walk the recorder's
// fixed-width records directly instead of materializing a Timeline first.
func (m *Machine) Observer() *obs.Recorder {
	if m.obs == nil {
		return nil
	}
	m.obsFinalize()
	return m.obs.rec
}

// Timeline finalizes and returns the run's event timeline, or nil when the
// machine was created without Options.Observe. Finalizing is terminal: call
// it after the run completes (stepping further records nothing new).
func (m *Machine) Timeline() *obs.Timeline {
	if m.obs == nil {
		return nil
	}
	m.obsFinalize()
	return m.obs.rec.Timeline()
}

// Samples finalizes and returns the run's metrics samples (nil when
// observability is off or sampling was not configured).
func (m *Machine) Samples() []obs.Sample {
	s := m.Series()
	if s == nil {
		return nil
	}
	return s.Samples
}

// Series finalizes and returns the run's metrics series, or nil when the
// machine was created without Options.Observe.
func (m *Machine) Series() *obs.Series {
	if m.obs == nil {
		return nil
	}
	m.obsFinalize()
	return m.obs.rec.Series()
}

// ReleaseObserver finalizes the record and returns the recorder's flat
// storage to the package pools for reuse by later runs (see
// obs.Recorder.Release). Call once all reads of this run's record are done;
// a no-op when the machine was created without Options.Observe.
func (m *Machine) ReleaseObserver() {
	if m.obs == nil {
		return
	}
	m.obsFinalize()
	m.obs.rec.Release()
}
