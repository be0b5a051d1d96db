package main

import (
	"fmt"
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
//
// Once the run's spill is committed complete (served), the spill holds the
// same stream and samples, so the sink drops its own copies as soon as no
// tail is reading them, and a later read re-loads them from the spill. A
// completed run then costs its aggregates in memory, not its records, so
// how many runs the spill budget retains does not set the server's memory.
type liveSink struct {
	mu          sync.Mutex
	design      string
	sampleEvery int64

	stream   []obs.Event // every event in arrival order; index == SSE id
	events   int         // non-FF-jump count (timeline partition sizes)
	ffJumps  int
	samples  []obs.Sample
	nSamples int
	cycle    int64 // latest cycle any record has reached

	// spill is the committed spill that backs the stream once served;
	// released is set when stream and samples have been dropped for it.
	// tails counts the SSE cursors reading the stream, which holds it in
	// memory until the last one ends.
	spill    string
	released bool
	tails    int

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
	s.nSamples++
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
// [0, stream length]) to the stream end, whether the run is finalized, and,
// when there is nothing new on a live run, the channel that closes at the
// next append or at Finalize. The stream is append-only, so the returned
// events stay safe to read after the lock is released. A released stream
// is re-loaded from the spill only when the cursor has events left to read.
func (s *liveSink) next(from int64) (evs []obs.Event, done bool, wake <-chan struct{}, err error) {
	s.mu.Lock()
	n := int64(s.events + s.ffJumps)
	from = min(max(from, 0), n)
	if s.released {
		s.mu.Unlock()
		if from == n {
			return nil, true, nil, nil
		}
		stream, _, err := s.reload()
		if err != nil {
			return nil, true, nil, err
		}
		return stream[from:n:n], true, nil, nil
	}
	defer s.mu.Unlock()
	evs = s.stream[from:n:n]
	if len(evs) == 0 && !s.finalized {
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		wake = s.wake
	}
	return evs, s.finalized, wake, nil
}

// tail registers an SSE cursor, which keeps the stream in memory until the
// returned func ends it.
func (s *liveSink) tail() (end func()) {
	s.mu.Lock()
	s.tails++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.tails--
		s.releaseIdle()
	}
}

// serve hands the stream and samples over to the complete spill in dir,
// which holds the same records: they are dropped now, or when the last tail
// reading them ends.
func (s *liveSink) serve(dir string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spill = dir
	s.releaseIdle()
}

// releaseIdle drops the stream and samples once a spill backs them and no
// tail is reading them. Callers hold s.mu.
func (s *liveSink) releaseIdle() {
	if s.spill != "" && s.tails == 0 && s.finalized {
		s.stream, s.samples, s.released = nil, nil, true
	}
}

// reload reads a released sink's stream and samples back from its spill,
// refusing a spill that does not hold as many of each as the sink counted.
func (s *liveSink) reload() ([]obs.Event, []obs.Sample, error) {
	log, err := obs.LoadSegments(s.spill)
	if err != nil {
		return nil, nil, err
	}
	c := newLiveSink(s.design, s.sampleEvery)
	log.Feed(c)
	if c.events != s.events || c.ffJumps != s.ffJumps || c.nSamples != s.nSamples {
		return nil, nil, fmt.Errorf("spill %s holds %d events, %d ff-jumps and %d samples; the run recorded %d, %d and %d",
			s.spill, c.events, c.ffJumps, c.nSamples, s.events, s.ffJumps, s.nSamples)
	}
	return c.stream, c.samples, nil
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
		samples: s.nSamples,
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

// record builds the timeline and metrics series of everything recorded so
// far — the finalized record once the run is done, otherwise a consistent
// mid-run view whose EndCycle is the telemetry high-water mark — from the
// sink's own records, or from the spill's once released. Partitioning the
// unified stream preserves each partition's arrival order, so the bytes
// match the recorder's own Timeline exactly. The series shares the
// append-only samples, capped at their reading.
func (s *liveSink) record() (*obs.Timeline, *obs.Series, error) {
	s.mu.Lock()
	stream, samples, released := s.stream, s.samples, s.released
	tl := &obs.Timeline{Design: s.design, EndCycle: s.cycle, DroppedEvents: s.dropped}
	s.mu.Unlock()
	if released {
		var err error
		if stream, samples, err = s.reload(); err != nil {
			return nil, nil, err
		}
	}
	tl.Events, tl.FFJumps = make([]obs.Event, 0, len(stream)), []obs.Event{}
	for _, e := range stream {
		if e.Kind == obs.KindFFJump {
			tl.FFJumps = append(tl.FFJumps, e)
		} else {
			tl.Events = append(tl.Events, e)
		}
	}
	ser := &obs.Series{Design: s.design, SampleEvery: s.sampleEvery, Samples: samples[:len(samples):len(samples)]}
	return tl, ser, nil
}
