package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// NDJSON spill: the streaming form of the observability record, one JSON
// object per line. Unlike the buffering Recorder, the spill writer holds no
// per-event state, so a multi-million-cycle run's record costs bounded
// memory — and ReplayNDJSON feeds the stream back through a fresh Recorder,
// rebuilding the exact Timeline/Series the buffering sink would have held
// (the streaming half of the byte-equivalence contract, which the
// experiments suite asserts with fast-forward on and off).
//
// The stream is:
//
//	{"obsNDJSON":1,"design":...,"sampleEvery":...}   header, first line
//	{"e":{...}}                                      one event (any kind)
//	{"s":{...}}                                      one metrics sample
//	{"fin":{"endCycle":...}}                         terminal line
//
// Fast-forward jumps travel as ordinary "e" lines with kind "ff-jump"; the
// replaying recorder routes them back onto the dedicated FFJumps track.

// ndjsonHeader is the first line of a spill stream.
type ndjsonHeader struct {
	Version     int    `json:"obsNDJSON"`
	Design      string `json:"design"`
	SampleEvery int64  `json:"sampleEvery,omitempty"`
}

// ndjsonLine is one post-header line (exactly one field is set).
type ndjsonLine struct {
	E   *Event       `json:"e,omitempty"`
	S   *Sample      `json:"s,omitempty"`
	Fin *ndjsonFinal `json:"fin,omitempty"`
}

// ndjsonFinal is the terminal line's payload.
type ndjsonFinal struct {
	EndCycle int64 `json:"endCycle"`
}

// NDJSONSink spills the event/sample stream to w as NDJSON. Write errors are
// sticky and reported by Finalize; after the first error the sink goes quiet
// rather than wedging the simulation.
type NDJSONSink struct {
	bw   *bufio.Writer
	line []byte // reused encode buffer: steady-state lines allocate nothing
	err  error
}

// NewNDJSONSink starts a spill stream on w, writing the header line
// immediately. The design name and sampling period travel in the header so a
// replay can rebuild Timeline.Design and Series.SampleEvery.
func NewNDJSONSink(w io.Writer, design string, sampleEvery int64) *NDJSONSink {
	s := &NDJSONSink{bw: bufio.NewWriter(w)}
	s.put(appendHeaderLine(s.line[:0], design, sampleEvery))
	return s
}

// put lands one encoded line (keeping its buffer for reuse) unless an
// earlier write failed.
func (s *NDJSONSink) put(line []byte) {
	s.line = line
	if s.err == nil {
		s.err = putLine(s.bw, line)
	}
}

// putLine writes line and its newline terminator.
func putLine(bw *bufio.Writer, line []byte) error {
	if _, err := bw.Write(line); err != nil {
		return err
	}
	return bw.WriteByte('\n')
}

// Event implements Sink.
func (s *NDJSONSink) Event(e Event) { s.put(appendEventLine(s.line[:0], &e)) }

// Sample implements Sink.
func (s *NDJSONSink) Sample(sm Sample) { s.put(appendSampleLine(s.line[:0], &sm)) }

// Finalize writes the terminal line, flushes, and reports any sticky error.
func (s *NDJSONSink) Finalize(endCycle int64) error {
	s.put(appendFinLine(s.line[:0], endCycle))
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.err != nil {
		return fmt.Errorf("obs: ndjson: %w", s.err)
	}
	return nil
}

// ReplayNDJSON reads a spill stream back and replays it through a fresh
// buffering Recorder, returning the rebuilt timeline and metrics series. A
// stream written by NDJSONSink replays to records byte-identical (through
// WriteTimeline/WriteSeries) to the ones the originating run's Recorder held
// at Finalize. A missing terminal line is an error: it means the run died
// before Finalize and the spill is a truncated record.
func ReplayNDJSON(r io.Reader) (*Timeline, *Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, nil, fmt.Errorf("obs: ndjson: %w", err)
		}
		return nil, nil, fmt.Errorf("obs: ndjson: empty stream")
	}
	var hdr ndjsonHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, nil, fmt.Errorf("obs: ndjson: header: %w", err)
	}
	if hdr.Version != 1 {
		return nil, nil, fmt.Errorf("obs: ndjson: unsupported version %d", hdr.Version)
	}
	rec := NewRecorder(hdr.Design, Config{SampleEvery: hdr.SampleEvery})
	finalized := false
	lineNo := 1
	for sc.Scan() {
		lineNo++
		if finalized {
			return nil, nil, fmt.Errorf("obs: ndjson: line %d after terminal line", lineNo)
		}
		var ln ndjsonLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return nil, nil, fmt.Errorf("obs: ndjson: line %d: %w", lineNo, err)
		}
		switch {
		case ln.E != nil:
			rec.Event(*ln.E)
		case ln.S != nil:
			rec.Sample(*ln.S)
		case ln.Fin != nil:
			if err := rec.Finalize(ln.Fin.EndCycle); err != nil {
				return nil, nil, err
			}
			finalized = true
		default:
			return nil, nil, fmt.Errorf("obs: ndjson: line %d: no payload", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("obs: ndjson: %w", err)
	}
	if !finalized {
		return nil, nil, fmt.Errorf("obs: ndjson: truncated stream (no terminal line)")
	}
	return rec.Timeline(), rec.Series(), nil
}
