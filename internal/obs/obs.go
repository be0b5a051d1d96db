// Package obs is the simulator's unified observability layer: a structured
// event timeline (spans and instants for unit activity, channel stalls, LSU
// line fetches, fault-injection windows, fast-forward jumps, and deadlock
// blame), a periodic metrics sampler, and machine-readable codecs for both.
// It turns the end-of-run text tables the paper's §6 profiling produces into
// the kind of timeline/series data dashboards and regression tooling consume
// — the paper's dynamic-visibility goal, emitted as data instead of prose.
//
// The recorder is event-driven: nothing here runs per cycle, so attaching it
// does not force the simulator off its fast-forward path (unlike the VCD
// recorder's cycle hook). Everything recorded is fast-forward-exact — the
// simulator emits events only at cycles it executes for real in both modes,
// and batch-advances the open stall spans across skipped windows, so a
// timeline is byte-identical with skipping on or off. Fast-forward jumps
// themselves are the one exception (they exist only when skipping is on) and
// are kept on a separate Timeline.FFJumps track for exactly that reason.
//
// Internally the recorder stores flat fixed-width records over an interned
// string table (see flat.go) and materializes Event values only at
// Timeline()/sink-flush time; the paper's "cheap enough to leave on" claim
// (§4: 1.1–1.3% for timestamp instrumentation) holds only if recording does
// not allocate per event, and the flat form is what delivers that.
package obs

import (
	"strconv"

	"oclfpga/internal/channel"
	"oclfpga/internal/mem"
)

// Event kinds, used as the trace_event category.
const (
	// KindLaunch marks a host launch landing on a compute unit (instant).
	KindLaunch = "launch"
	// KindUnitRun spans a compute unit's active interval (start → finish).
	KindUnitRun = "unit-run"
	// KindChanStall spans one consecutive blockage of a channel endpoint
	// (first refused attempt → last refused attempt).
	KindChanStall = "chan-stall"
	// KindLineFetch spans one DRAM line fetch (issue → data ready).
	KindLineFetch = "line-fetch"
	// KindFault spans an injected fault's active window (instant for
	// one-shot kinds like depth-override and launch-skew).
	KindFault = "fault"
	// KindFFJump spans a window of quiescent cycles the simulator skipped.
	KindFFJump = "ff-jump"
	// KindBlame marks a deadlock diagnosis (instant; Detail carries the
	// blame verdict).
	KindBlame = "deadlock-blame"
)

// Event is one timeline entry. Spans cover the inclusive cycle interval
// [Start, End]; instants have Start == End.
type Event struct {
	Kind    string `json:"kind"`
	Track   string `json:"track"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Instant bool   `json:"instant,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Timeline is a finished run's event record. FFJumps is kept separate from
// Events because jumps describe how the run was simulated, not what the
// simulated hardware did — the equivalence suite compares Events across
// fast-forward modes and ignores FFJumps. DroppedEvents counts events that
// arrived after Finalize and were refused (a closed timeline is a sealed
// record; late arrivals are counted, never appended).
type Timeline struct {
	Design        string  `json:"design"`
	EndCycle      int64   `json:"endCycle"`
	DroppedEvents int64   `json:"droppedEvents,omitempty"`
	Events        []Event `json:"events"`
	FFJumps       []Event `json:"ffJumps,omitempty"`
}

// ChannelSample is one channel's counters at a sample cycle. Channels with no
// activity and no occupancy are omitted from the sample.
type ChannelSample struct {
	Name string `json:"name"`
	Len  int    `json:"len"`
	channel.Stats
}

// LSUSample is one memory access site's counters at a sample cycle.
type LSUSample struct {
	Unit    string `json:"unit"`
	Array   string `json:"array"`
	Kind    string `json:"kind"`
	IsStore bool   `json:"isStore"`
	mem.LSUStats
}

// LocalSample is one on-chip local memory's counters at a sample cycle — the
// ibuffer trace storage shows up here (paper §4: the ibuffer lives in local
// memory so profiling does not perturb global-memory behaviour).
type LocalSample struct {
	Name   string `json:"name"`
	Reads  int64  `json:"reads"`
	Writes int64  `json:"writes"`
}

// Sample is one periodic snapshot of the machine's accumulated counters.
type Sample struct {
	Cycle    int64           `json:"cycle"`
	Channels []ChannelSample `json:"channels,omitempty"`
	LSUs     []LSUSample     `json:"lsus,omitempty"`
	Locals   []LocalSample   `json:"locals,omitempty"`
}

// Series is the metrics time series of a run: one Sample every SampleEvery
// cycles plus a terminal sample at the end cycle.
type Series struct {
	Design      string   `json:"design"`
	SampleEvery int64    `json:"sampleEvery"`
	Samples     []Sample `json:"samples"`
}

// Config enables observability on a machine.
type Config struct {
	// SampleEvery takes a metrics sample every N cycles (0 disables
	// sampling; the event timeline is recorded either way). Sample cycles
	// are fast-forward deadline cycles: the simulator never jumps across
	// one, so each sample sees exactly the state the per-cycle path would.
	SampleEvery int64
	// CheckpointEvery emits a rewind checkpoint (KindCheckpoint instant on
	// CheckpointTrack, see checkpoint.go) every N cycles; 0 disables
	// checkpoints. Like sample cycles, checkpoint cycles are fast-forward
	// deadline cycles, so the recorded state hash is the per-cycle path's.
	CheckpointEvery int64
	// Sink, when non-nil, receives every finished event (including
	// fast-forward jumps, distinguishable by Kind) and every sample in
	// append order, and Finalize when the record closes. Each record is
	// materialized the moment it lands. Outside a Batch ... Sync window it
	// is handed downstream at once; inside one (a simulator drive-loop call)
	// it is delivered in order by the recorder's delivery goroutine (see
	// pipe.go), and Sync catches the sink up. Either way the sink sees the
	// same calls, so a spill's bytes do not depend on the window. Compose
	// several destinations with NewFanout; the recorder itself stays the
	// buffering head of the pipeline, so Timeline/Series keep working
	// regardless of what streams downstream.
	Sink Sink
}

// Recorder accumulates a run's timeline and samples — the pipeline's
// buffering sink. It is not safe for concurrent use; the simulator owns it
// and appends from its single-threaded tick loop. A downstream Sink (if
// configured) sees events and samples in exactly append order, from the
// recorder's delivery goroutine between Batch and Sync and from the caller's
// goroutine otherwise.
//
// The hot path is allocation-free: Intern track/name strings once, then
// record through SpanID/InstantID/SpanDetailID — each call packs one
// fixed-width record onto the end of the append log. The string-typed
// Span/Instant/Add methods remain for rare paths (fault edges, deadlock
// blame, NDJSON replay) and intern on every call.
type Recorder struct {
	design string
	cfg    Config

	tab     internTable
	log     recLog // every record, in append order
	nEvents int    // records without FlagFFJump
	nJumps  int    // records with FlagFFJump

	// flushed counts the log's records already delivered to the sink.
	flushed int
	// detailCache memoizes rendered detail strings so flushing N stall
	// spans of the same unit concatenates "unit=" once, not N times.
	detailCache map[Detail]string

	// Canonical fast-forward jump identity, interned once.
	ffKind, ffTrack, ffName ID

	windows []window // open fault windows, insertion-ordered

	pipe pipe // batched hand-off to the delivery goroutine (pipe.go)

	// Samples live flat too (see sampleflat.go): a pointer-free word stream
	// plus a count, materialized to []Sample only on demand.
	sampStream wordStream
	nSamples   int
	lastSamp   int64
	endCycle   int64
	dropped    int64
	finalized  bool
	released   bool

	// Timeline/series materialization caches, valid once finalized.
	tlEvents  []Event
	tlJumps   []Event
	tlBuilt   bool
	sampCache []Sample
	sampBuilt bool
}

// window is an open span waiting for its close edge, held in flat form.
type window struct {
	key               string
	kind, track, name ID
	start             int64
	detail            Detail
	closed            bool
}

// NewRecorder creates a recorder for a run of the named design.
func NewRecorder(design string, cfg Config) *Recorder {
	r := &Recorder{design: design, cfg: cfg, tab: newInternTable(), lastSamp: -1}
	r.ffKind = r.Intern(KindFFJump)
	r.ffTrack = r.Intern("sim:fast-forward")
	r.ffName = r.Intern("jump")
	return r
}

// SampleEvery returns the configured sampling period.
func (r *Recorder) SampleEvery() int64 { return r.cfg.SampleEvery }

// Intern returns the recorder-local ID for s, assigning one on first use.
// Hot-path callers intern their vocabulary once and record by ID.
func (r *Recorder) Intern(s string) ID { return r.tab.intern(s) }

// Str resolves an interned ID back to its string.
func (r *Recorder) Str(id ID) string { return r.tab.str(id) }

// Design returns the design name the recorder was created for.
func (r *Recorder) Design() string { return r.design }

// EndCycle returns the cycle the record was finalized at (0 before Finalize).
func (r *Recorder) EndCycle() int64 { return r.endCycle }

// appendFlat is the one append path: finalized is checked before anything is
// built (a post-Finalize arrival costs one counter increment, nothing else),
// then a fixed-width record lands at the end of the log.
func (r *Recorder) appendFlat(kind, track, name ID, start, end int64, flags uint8, d Detail) {
	if r.finalized {
		r.dropped++
		return
	}
	w := r.log.slot()
	w[0] = uint64(r.log.n - 1)
	w[1] = uint64(kind) | uint64(d.tmpl)<<32 | uint64(flags)<<40
	w[2] = uint64(track) | uint64(name)<<32
	w[3] = uint64(start)
	w[4] = uint64(end)
	w[5] = d.arg
	if flags&FlagFFJump != 0 {
		r.nJumps++
	} else {
		r.nEvents++
	}
	if r.cfg.Sink != nil {
		r.flush()
	}
}

// SpanID appends a completed span by interned IDs — the zero-allocation form
// of Span.
func (r *Recorder) SpanID(kind, track, name ID, start, end int64) {
	r.appendFlat(kind, track, name, start, end, 0, NoDetail)
}

// SpanDetailID appends a completed span with a lazy detail annotation.
func (r *Recorder) SpanDetailID(kind, track, name ID, start, end int64, d Detail) {
	r.appendFlat(kind, track, name, start, end, 0, d)
}

// InstantID appends an instant event by interned IDs.
func (r *Recorder) InstantID(kind, track, name ID, at int64, d Detail) {
	r.appendFlat(kind, track, name, at, at, FlagInstant, d)
}

// Add appends a fully formed event. Events added after Finalize are dropped
// and counted: the timeline is a closed record of the run.
func (r *Recorder) Add(e Event) {
	if r.finalized {
		r.dropped++
		return
	}
	var flags uint8
	if e.Instant {
		flags = FlagInstant
	}
	d := NoDetail
	if e.Detail != "" {
		d = LitDetail(r.Intern(e.Detail))
	}
	r.appendFlat(r.Intern(e.Kind), r.Intern(e.Track), r.Intern(e.Name), e.Start, e.End, flags, d)
}

// Event implements Sink: fast-forward jumps route to their dedicated track,
// everything else to the main event sequence. This is what lets a replayed
// NDJSON stream rebuild a byte-identical timeline through a fresh Recorder.
func (r *Recorder) Event(e Event) {
	if e.Kind == KindFFJump {
		r.FFJump(e.Start, e.End)
		return
	}
	r.Add(e)
}

// Sample implements Sink (alias of AddSample).
func (r *Recorder) Sample(s Sample) { r.AddSample(s) }

// DroppedEvents returns how many events/samples arrived after Finalize and
// were refused.
func (r *Recorder) DroppedEvents() int64 { return r.dropped }

// Span appends a completed span event.
func (r *Recorder) Span(kind, track, name string, start, end int64) {
	if r.finalized {
		r.dropped++
		return
	}
	r.appendFlat(r.Intern(kind), r.Intern(track), r.Intern(name), start, end, 0, NoDetail)
}

// Instant appends an instant event (detail may be empty).
func (r *Recorder) Instant(kind, track, name string, at int64, detail string) {
	if r.finalized {
		r.dropped++
		return
	}
	d := NoDetail
	if detail != "" {
		d = LitDetail(r.Intern(detail))
	}
	r.appendFlat(r.Intern(kind), r.Intern(track), r.Intern(name), at, at, FlagInstant, d)
}

// FFJump records one fast-forward jump over the inclusive skipped window
// [from, to]. Jumps live on their own timeline track (see Timeline.FFJumps)
// but stream downstream interleaved with ordinary events, tagged by Kind.
func (r *Recorder) FFJump(from, to int64) {
	r.appendFlat(r.ffKind, r.ffTrack, r.ffName, from, to, FlagFFJump, NoDetail)
}

// OpenWindow starts a span whose end is not yet known (a fault switching on).
// The End field of e is ignored until CloseWindow or Finalize supplies it.
func (r *Recorder) OpenWindow(key string, e Event) {
	if r.finalized {
		r.dropped++
		return
	}
	d := NoDetail
	if e.Detail != "" {
		d = LitDetail(r.Intern(e.Detail))
	}
	r.windows = append(r.windows, window{
		key: key, kind: r.Intern(e.Kind), track: r.Intern(e.Track),
		name: r.Intern(e.Name), start: e.Start, detail: d,
	})
}

// CloseWindow completes the most recent open window with the given key; the
// finished span is appended to the timeline at close time, so event order
// reflects when facts became known.
func (r *Recorder) CloseWindow(key string, end int64) {
	if r.finalized {
		r.dropped++
		return
	}
	for i := len(r.windows) - 1; i >= 0; i-- {
		w := &r.windows[i]
		if w.closed || w.key != key {
			continue
		}
		w.closed = true
		r.appendFlat(w.kind, w.track, w.name, w.start, end, 0, w.detail)
		return
	}
}

// AddSample appends a metrics sample, interning its strings and packing its
// counters into the flat sample stream. Hot-path callers with pre-interned
// vocabulary should build through BeginSample instead.
func (r *Recorder) AddSample(s Sample) {
	sw := r.BeginSample(s.Cycle)
	for _, c := range s.Channels {
		sw.Channel(r.Intern(c.Name), c.Len, c.Stats)
	}
	for _, l := range s.LSUs {
		sw.LSU(r.Intern(l.Unit), r.Intern(l.Array), r.Intern(l.Kind), l.IsStore, l.LSUStats)
	}
	for _, lo := range s.Locals {
		sw.Local(r.Intern(lo.Name), lo.Reads, lo.Writes)
	}
	sw.Commit()
}

// LastSampleCycle returns the cycle of the most recent sample (-1 if none).
func (r *Recorder) LastSampleCycle() int64 { return r.lastSamp }

// Finalize closes the record at endCycle: any still-open windows become spans
// ending at endCycle (in the order they were opened), and a configured
// downstream sink receives the remaining events and is finalized in turn (its
// error — e.g. an NDJSON writer's flush failure — is the return value).
// Further Add/AddSample calls are dropped and counted; Finalize itself is
// idempotent.
func (r *Recorder) Finalize(endCycle int64) error {
	if r.finalized {
		return nil
	}
	for i := range r.windows {
		w := &r.windows[i]
		if w.closed {
			continue
		}
		w.closed = true
		r.appendFlat(w.kind, w.track, w.name, w.start, endCycle, 0, w.detail)
	}
	r.endCycle = endCycle
	r.finalized = true
	if r.cfg.Sink != nil {
		r.flush()
		r.Sync()
		return r.cfg.Sink.Finalize(endCycle)
	}
	return nil
}

// Finalized reports whether the record has been closed.
func (r *Recorder) Finalized() bool { return r.finalized }

// Release returns the recorder's flat storage — record segments and sample
// chunks — to package-level pools so the next recorder reuses them instead of
// allocating: the software analogue of the paper's ibuffer, a trace ring
// sized once and rewritten in place run after run. Callers that keep a
// recorder per run (benchmark loops, long-lived monitors) release each run's
// storage once they are done reading it, collapsing steady-state allocation
// to near zero.
//
// Release is only valid on a finalized recorder (it panics otherwise) and is
// idempotent. Timeline and Series snapshots materialized before Release stay
// valid — they are value copies — but paths that would lazily re-read the
// flat storage (a first Timeline/Series call, FlatLog) panic after
// Release, because the words now belong to someone else.
func (r *Recorder) Release() {
	if r.released {
		return
	}
	if !r.finalized {
		panic("obs: Release before Finalize")
	}
	r.released = true
	r.log.release()
	for _, c := range r.sampStream.chunks {
		if cap(c) == sampChunkWords {
			sampChunkPool.Put(c[:0])
		}
	}
	r.sampStream = wordStream{}
}

// Released reports whether the recorder's storage has been released.
func (r *Recorder) Released() bool { return r.released }

// renderDetail resolves a packed detail to its string form through the
// memoization cache.
func (r *Recorder) renderDetail(d Detail) string {
	if d.tmpl == TmplNone {
		return ""
	}
	if d.tmpl == TmplLit {
		return r.tab.str(ID(d.arg))
	}
	if s, ok := r.detailCache[d]; ok {
		return s
	}
	var s string
	switch d.tmpl {
	case TmplUnit:
		s = "unit=" + r.tab.str(ID(d.arg))
	case TmplValue:
		s = "value=" + strconv.FormatInt(int64(d.arg), 10)
	}
	if r.detailCache == nil {
		r.detailCache = map[Detail]string{}
	}
	r.detailCache[d] = s
	return s
}

// materialize builds the Event value for one flat record.
func (r *Recorder) materialize(f FlatRecord) Event {
	return Event{
		Kind: r.tab.str(f.Kind), Track: r.tab.str(f.Track), Name: r.tab.str(f.Name),
		Start: f.Start, End: f.End, Instant: f.IsInstant(),
		Detail: r.renderDetail(Detail{tmpl: f.Tmpl, arg: f.Arg}),
	}
}

// flush streams every pending record to the sink in append order.
func (r *Recorder) flush() {
	for ; r.flushed < r.log.n; r.flushed++ {
		r.emitEvent(r.materialize(unpackRecord(r.log.at(r.flushed))))
	}
}

// buildTimeline materializes the record log into the Events and
// FFJumps slices, allocated at exact capacity and left nil when empty (the
// Timeline JSON codec distinguishes null from []).
func (r *Recorder) buildTimeline() (events, jumps []Event) {
	if r.nEvents > 0 {
		events = make([]Event, 0, r.nEvents)
	}
	if r.nJumps > 0 {
		jumps = make([]Event, 0, r.nJumps)
	}
	for i := 0; i < r.log.n; i++ {
		f := unpackRecord(r.log.at(i))
		if f.IsFFJump() {
			jumps = append(jumps, r.materialize(f))
		} else {
			events = append(events, r.materialize(f))
		}
	}
	return events, jumps
}

// Timeline snapshots the recorded events. Call after Finalize; the returned
// struct is fresh on every call but shares the materialized backing slices,
// which must not be mutated except to detach FFJumps.
func (r *Recorder) Timeline() *Timeline {
	events, jumps := r.tlEvents, r.tlJumps
	if !r.tlBuilt {
		if r.released {
			panic("obs: Timeline on released recorder")
		}
		events, jumps = r.buildTimeline()
		if r.finalized {
			r.tlEvents, r.tlJumps, r.tlBuilt = events, jumps, true
		}
	}
	return &Timeline{
		Design: r.design, EndCycle: r.endCycle, DroppedEvents: r.dropped,
		Events: events, FFJumps: jumps,
	}
}

// EventCount returns the number of recorded main-track events (fast-forward
// jumps excluded) without materializing them.
func (r *Recorder) EventCount() int { return r.nEvents }

// FFJumpCount returns the number of recorded fast-forward jumps.
func (r *Recorder) FFJumpCount() int { return r.nJumps }

// SampleCount returns the number of recorded metrics samples without
// materializing them.
func (r *Recorder) SampleCount() int { return r.nSamples }

// DetailOf renders a flat record's detail annotation.
func (r *Recorder) DetailOf(f FlatRecord) string {
	return r.renderDetail(Detail{tmpl: f.Tmpl, arg: f.Arg})
}

// FlatLog snapshots the recorder's flat state — the intern table plus every
// record (fast-forward jumps included) in append order, unmaterialized — as a
// standalone, codec-round-trippable value.
func (r *Recorder) FlatLog() *FlatLog {
	if r.released {
		panic("obs: FlatLog on released recorder")
	}
	l := &FlatLog{
		Strings:  append([]string(nil), r.tab.strs...),
		Records:  make([]FlatRecord, r.log.n),
		EndCycle: -1,
	}
	for i := range l.Records {
		l.Records[i] = unpackRecord(r.log.at(i))
	}
	return l
}

// Series snapshots the recorded metrics samples, materializing them from the
// flat sample stream (cached once the recorder is finalized).
func (r *Recorder) Series() *Series {
	return &Series{Design: r.design, SampleEvery: r.cfg.SampleEvery, Samples: r.sampleSlice()}
}

func (r *Recorder) sampleSlice() []Sample {
	if r.sampBuilt {
		return r.sampCache
	}
	if r.released {
		panic("obs: Series on released recorder")
	}
	var out []Sample
	if r.nSamples > 0 {
		out = decodeSamples(r.tab.strs, sampCursor{ws: &r.sampStream}, make([]Sample, 0, r.nSamples))
	}
	if r.finalized {
		r.sampCache, r.sampBuilt = out, true
	}
	return out
}
