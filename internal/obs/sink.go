package obs

// Sink is one destination of the observability pipeline. The simulator's
// recorder calls Event for every finished event in append order — including
// fast-forward jumps, which carry Kind == KindFFJump so a sink can keep them
// off the hardware-behaviour record — Sample for every metrics sample, and
// Finalize exactly once when the run's record closes. Calls never overlap,
// but inside a simulator drive-loop call they arrive from the recorder's
// delivery goroutine (see pipe.go), with every one delivered before the call
// returns; a sink shared with other goroutines (the oclmon live server) must
// do its own locking.
type Sink interface {
	// Event receives one finished span or instant.
	Event(e Event)
	// Sample receives one periodic metrics snapshot.
	Sample(s Sample)
	// Finalize closes the sink at the run's end cycle. Buffered writers
	// flush here; the returned error is the sink's one chance to report
	// I/O failure (per-event errors are sticky until Finalize).
	Finalize(endCycle int64) error
}

// Fanout forwards every event and sample to each of its sinks in order —
// the tee that lets one run feed the in-memory buffer, an NDJSON spill file,
// and a live server simultaneously.
type Fanout struct {
	sinks []Sink
}

// NewFanout builds a fan-out over the given sinks (nils are skipped).
func NewFanout(sinks ...Sink) *Fanout {
	f := &Fanout{}
	for _, s := range sinks {
		if s != nil {
			f.sinks = append(f.sinks, s)
		}
	}
	return f
}

// Event forwards to every sink.
func (f *Fanout) Event(e Event) {
	for _, s := range f.sinks {
		s.Event(e)
	}
}

// Sample forwards to every sink.
func (f *Fanout) Sample(s Sample) {
	for _, sk := range f.sinks {
		sk.Sample(s)
	}
}

// Finalize finalizes every sink and returns the first error (all sinks are
// finalized regardless, so a failing spill file cannot wedge the live tail).
func (f *Fanout) Finalize(endCycle int64) error {
	var first error
	for _, s := range f.sinks {
		if err := s.Finalize(endCycle); err != nil && first == nil {
			first = err
		}
	}
	return first
}
