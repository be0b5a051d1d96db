package main

import (
	"strconv"
	"strings"
	"sync"

	"oclfpga/internal/obs"
)

// liveSink is the obs.Sink behind every hosted run: the simulation goroutine
// streams records in through the recorder, HTTP handlers read consistent
// copies out. It keeps the event stream in append (spill) order — each event's
// index is its SSE sequence number, which is what lets a client dropped
// mid-tail resume with Last-Event-ID without duplicate or missing frames,
// even across a worker failover (the replacement worker replays the spill in
// the same order, so sequence numbers are stable by determinism). It also
// keeps the running aggregates /metrics scrapes and the SSE subscriber set.
type liveSink struct {
	mu          sync.Mutex
	design      string
	sampleEvery int64

	stream  []obs.Event // every event in arrival order; index == SSE id
	events  int         // non-FF-jump count (timeline partition sizes)
	ffJumps int
	samples []obs.Sample
	cycle   int64 // latest cycle any record has reached

	stall map[stallKey]int64 // chan-stall cycles by (channel, direction)
	depth map[string]int     // channel occupancy at the latest sample

	finalized bool
	dropped   int64
	err       error

	subs       map[chan []byte]struct{}
	sseDropped int64 // frames shed to slow SSE subscribers
}

type stallKey struct{ resource, op string }

func newLiveSink(design string, sampleEvery int64) *liveSink {
	return &liveSink{
		design:      design,
		sampleEvery: sampleEvery,
		stall:       map[stallKey]int64{},
		depth:       map[string]int{},
		subs:        map[chan []byte]struct{}{},
	}
}

func (s *liveSink) Event(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := int64(len(s.stream))
	s.stream = append(s.stream, e)
	if e.Kind == obs.KindFFJump {
		s.ffJumps++
	} else {
		s.events++
	}
	if e.End > s.cycle {
		s.cycle = e.End
	}
	if e.Kind == obs.KindChanStall {
		k := stallKey{resource: strings.TrimPrefix(e.Track, "chan:"), op: e.Name}
		s.stall[k] += e.End - e.Start + 1
	}
	s.broadcast(seq, e)
}

func (s *liveSink) Sample(smp obs.Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, smp)
	if smp.Cycle > s.cycle {
		s.cycle = smp.Cycle
	}
	for _, c := range smp.Channels {
		s.depth[c.Name] = c.Len
	}
}

func (s *liveSink) Finalize(endCycle int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return nil
	}
	s.finalized = true
	s.cycle = endCycle
	for ch := range s.subs {
		close(ch)
	}
	s.subs = map[chan []byte]struct{}{}
	return nil
}

// retire publishes the run goroutine's final outcome once the machine is done
// with the sink.
func (s *liveSink) retire(dropped int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropped = dropped
	s.err = err
}

// sseFrame renders one event as an SSE frame. The id line carries the
// event's stream sequence number so clients can resume with Last-Event-ID.
func sseFrame(seq int64, e obs.Event) []byte {
	msg := make([]byte, 0, 160)
	msg = append(msg, "id: "...)
	msg = strconv.AppendInt(msg, seq, 10)
	msg = append(msg, "\ndata: "...)
	msg = obs.AppendEventJSON(msg, &e)
	return append(msg, "\n\n"...)
}

// broadcast fans one event out to the SSE subscribers. Slow subscribers lose
// events rather than stalling the simulation: the channel is a bounded
// per-client buffer, and a full buffer drops the frame and counts it
// (oclmon_sse_dropped_total) — the sim loop never blocks on a stalled HTTP
// client. A dropped frame leaves a gap in the client's ids; reconnecting
// with Last-Event-ID replays exactly the gap. Callers hold s.mu.
func (s *liveSink) broadcast(seq int64, e obs.Event) {
	if len(s.subs) == 0 {
		return
	}
	msg := sseFrame(seq, e)
	for ch := range s.subs {
		select {
		case ch <- msg:
		default:
			s.sseDropped++
		}
	}
}

// subscribe registers an SSE tail resuming after sequence number `after`
// (-1 for the full stream): the returned backlog holds the frames already
// recorded past that point, and the channel carries everything newer, with
// no duplicates or gaps between them because both are cut under one lock.
// The channel closes at Finalize. cancel is idempotent and safe after the
// close.
func (s *liveSink) subscribe(after int64) (backlog [][]byte, ch <-chan []byte, cancel func()) {
	c := make(chan []byte, 256)
	s.mu.Lock()
	if after < -1 {
		after = -1
	}
	for seq := after + 1; seq < int64(len(s.stream)); seq++ {
		backlog = append(backlog, sseFrame(seq, s.stream[seq]))
	}
	if s.finalized {
		close(c)
		s.mu.Unlock()
		return backlog, c, func() {}
	}
	s.subs[c] = struct{}{}
	s.mu.Unlock()
	return backlog, c, func() {
		s.mu.Lock()
		if _, live := s.subs[c]; live {
			delete(s.subs, c)
			close(c)
		}
		s.mu.Unlock()
	}
}

// series builds the metrics series recorded so far — the diff endpoint's
// evidence section. Samples are copied under the lock so the caller's view
// stays consistent while the run keeps sampling.
func (s *liveSink) series() *obs.Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &obs.Series{
		Design:      s.design,
		SampleEvery: s.sampleEvery,
		Samples:     append([]obs.Sample(nil), s.samples...),
	}
}

// liveStats is one consistent reading of the sink's aggregates.
type liveStats struct {
	cycle      int64
	events     int
	samples    int
	ffJumps    int
	stall      map[stallKey]int64
	depth      map[string]int
	done       bool
	dropped    int64
	sseDropped int64
	err        error
}

func (s *liveSink) stats() liveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := liveStats{
		cycle:      s.cycle,
		events:     s.events,
		samples:    len(s.samples),
		ffJumps:    s.ffJumps,
		stall:      make(map[stallKey]int64, len(s.stall)),
		depth:      make(map[string]int, len(s.depth)),
		done:       s.finalized,
		dropped:    s.dropped,
		sseDropped: s.sseDropped,
		err:        s.err,
	}
	for k, v := range s.stall {
		st.stall[k] = v
	}
	for k, v := range s.depth {
		st.depth[k] = v
	}
	return st
}

// snapshot builds a timeline of everything recorded so far — the finalized
// record once the run is done, otherwise a consistent mid-run view whose
// EndCycle is the telemetry high-water mark. Partitioning the unified stream
// preserves each partition's arrival order, so the bytes match the recorder's
// own Timeline exactly.
func (s *liveSink) snapshot() *obs.Timeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	tl := &obs.Timeline{
		Design:        s.design,
		EndCycle:      s.cycle,
		DroppedEvents: s.dropped,
		Events:        make([]obs.Event, 0, s.events),
		FFJumps:       make([]obs.Event, 0, s.ffJumps),
	}
	for _, e := range s.stream {
		if e.Kind == obs.KindFFJump {
			tl.FFJumps = append(tl.FFJumps, e)
		} else {
			tl.Events = append(tl.Events, e)
		}
	}
	return tl
}
