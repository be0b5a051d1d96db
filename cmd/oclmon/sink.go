package main

import (
	"strings"
	"sync"

	"oclfpga/internal/obs"
)

// liveSink is the obs.Sink behind every hosted run: the run's recorder
// streams records in (from its delivery goroutine while the machine runs,
// see obs/pipe.go), HTTP handlers read consistent copies out. It keeps the
// event stream in append (spill) order — each event's
// index is its SSE sequence number, which is what lets a client dropped
// mid-tail resume with Last-Event-ID without duplicate or missing frames,
// even across a worker failover (the replacement worker replays the spill in
// the same order, so sequence numbers are stable by determinism). It also
// keeps the running aggregates /metrics scrapes. The sink knows nothing of
// SSE subscribers: each tail reads the stream through its own cursor (next),
// and the sink only closes one shared wake channel when the stream grows or
// the run finalizes, so the run never encodes a frame or waits on a client.
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

	// wake is made by the first cursor that finds nothing new, and closed
	// (then cleared) by the next append or by Finalize.
	wake chan struct{}
}

type stallKey struct{ resource, op string }

func newLiveSink(design string, sampleEvery int64) *liveSink {
	return &liveSink{
		design:      design,
		sampleEvery: sampleEvery,
		stall:       map[stallKey]int64{},
		depth:       map[string]int{},
	}
}

func (s *liveSink) Event(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.notify()
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
	s.notify()
	return nil
}

// notify wakes every cursor waiting at the stream end. Callers hold s.mu.
func (s *liveSink) notify() {
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
}

// next is an SSE cursor's read: the events from index from (clamped to
// [0, len(stream)]) to the stream end, whether the run is finalized, and,
// when there is nothing new on a live run, the channel that closes at the
// next append or at Finalize. The stream is append-only, so the returned
// events stay safe to read after the lock is released.
func (s *liveSink) next(from int64) (evs []obs.Event, done bool, wake <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(len(s.stream))
	from = min(max(from, 0), n)
	evs = s.stream[from:n:n]
	if len(evs) == 0 && !s.finalized {
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		wake = s.wake
	}
	return evs, s.finalized, wake
}

// retire publishes the run goroutine's final outcome once the machine is done
// with the sink. A sink the run never finalized (e.g. Start errored before a
// machine existed) is finalized at the cycle it reached, so SSE tails
// terminate.
func (s *liveSink) retire(dropped int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropped = dropped
	s.err = err
	if !s.finalized {
		s.finalized = true
		s.notify()
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
	cycle   int64
	events  int
	samples int
	ffJumps int
	stall   map[stallKey]int64
	depth   map[string]int
	dropped int64
	err     error
}

func (s *liveSink) stats() liveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := liveStats{
		cycle:   s.cycle,
		events:  s.events,
		samples: len(s.samples),
		ffJumps: s.ffJumps,
		stall:   make(map[stallKey]int64, len(s.stall)),
		depth:   make(map[string]int, len(s.depth)),
		dropped: s.dropped,
		err:     s.err,
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
