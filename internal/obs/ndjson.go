package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// NDJSON stream: the export and import form of the observability record,
// one JSON object per line. NDJSONSink writes it as the run executes
// (oclprof -spill), holding no per-event state, so a multi-million-cycle
// run's record costs bounded memory; obscheck -export renders a loaded spill
// directory through the same sink. ReplayNDJSON feeds the stream back
// through a fresh Recorder, rebuilding the exact Timeline/Series the
// buffering sink would have held (the streaming half of the byte-equivalence
// contract, which the experiments suite asserts with fast-forward on and
// off).
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

// NDJSONSink writes the event/sample stream to w as NDJSON, buffered: w sees
// a write per 4 KiB of lines, and the rest at Finalize (or Flush). Write
// errors are sticky and reported by Finalize; after the first error the
// sink goes quiet rather than wedging the simulation.
type NDJSONSink struct {
	w    *bufio.Writer
	line []byte // reused encode buffer: steady-state lines allocate nothing
	err  error
}

// NewNDJSONSink starts a spill stream on w with its header line. The design
// name and sampling period travel in the header so a replay can rebuild
// Timeline.Design and Series.SampleEvery.
func NewNDJSONSink(w io.Writer, design string, sampleEvery int64) *NDJSONSink {
	s := &NDJSONSink{w: bufio.NewWriter(w)}
	s.put(appendHeaderLine(nil, design, sampleEvery))
	return s
}

// put writes one line and its newline.
func (s *NDJSONSink) put(line []byte) {
	s.line = append(line, '\n')
	if s.err == nil {
		_, s.err = s.w.Write(s.line)
	}
}

// Event implements Sink.
func (s *NDJSONSink) Event(e Event) { s.put(appendEventLine(s.line[:0], &e)) }

// Sample implements Sink.
func (s *NDJSONSink) Sample(sm Sample) { s.put(appendSampleLine(s.line[:0], &sm)) }

// Finalize writes the terminal line, flushes, and reports any sticky error.
func (s *NDJSONSink) Finalize(endCycle int64) error {
	s.put(appendFinLine(s.line[:0], endCycle))
	return s.Flush()
}

// Flush writes the buffered lines out and reports any sticky error — for a
// stream that ends without its terminal line, such as an incomplete spill's
// export; Finalize flushes by itself.
func (s *NDJSONSink) Flush() error {
	if s.err == nil {
		s.err = s.w.Flush()
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
// at Finalize. A missing terminal line is an error (the run died before
// Finalize and the spill is a truncated record), and every rejection is a
// *CorruptSegmentError.
func ReplayNDJSON(r io.Reader) (*Timeline, *Series, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: ndjson: %w", err)
	}
	sr := ndjsonReader{data: data}
	if err := sr.header(); err != nil {
		return nil, nil, err
	}
	rec := NewRecorder(sr.hdr.Design, Config{SampleEvery: sr.hdr.SampleEvery})
	if err := sr.feed(rec); err != nil {
		return nil, nil, err
	}
	if err := rec.Finalize(sr.fin.EndCycle); err != nil {
		return nil, nil, err
	}
	return rec.Timeline(), rec.Series(), nil
}

// ndjsonReader reads the header / payload / fin line stream. It splits
// newline-terminated lines and tracks their byte offsets, decodes and
// validates the header once, and decodes each later line once — through the
// line codec's fast path, or json.Unmarshal for a line outside its layout —
// holding it to exactly one of e/s/fin. Every rejection is a
// *CorruptSegmentError at the offending line's offset.
type ndjsonReader struct {
	data []byte // unread stream bytes
	off  int64  // stream offset of the next line

	hdr ndjsonHeader // the decoded header
	fin *ndjsonFinal // the fin line, once read
	dec lineDecoder  // the payload lines' fast-path decoder
}

func (r *ndjsonReader) corrupt(off int64, reason, expected, got string) *CorruptSegmentError {
	return corrupt("", "ndjson stream", off, reason, expected, got)
}

// next splits off the next line (without its newline) and its offset. It
// reports false at the end of the stream, leaving any torn unterminated tail
// in data.
func (r *ndjsonReader) next() (line []byte, start int64, ok bool) {
	start = r.off
	i := bytes.IndexByte(r.data, '\n')
	if i < 0 {
		return nil, start, false
	}
	line, r.data = r.data[:i], r.data[i+1:]
	r.off += int64(len(line)) + 1
	return line, start, true
}

// header reads the first line: a version-1 header with a non-negative
// sampling period.
func (r *ndjsonReader) header() error {
	line, off, ok := r.next()
	if !ok {
		return r.corrupt(off, "truncated", "header line", "end of file")
	}
	if err := json.Unmarshal(line, &r.hdr); err != nil {
		return r.corrupt(off, "garbage", "header line", err.Error())
	}
	if r.hdr.Version != 1 || r.hdr.SampleEvery < 0 {
		return r.corrupt(off, "structure", "version-1 header", fmt.Sprintf("%+v", r.hdr))
	}
	return nil
}

// feed streams every line after the header into sink in order, without
// finalizing: event and sample lines, then the fin line the stream must end
// with, on a newline.
func (r *ndjsonReader) feed(sink Sink) error {
	var ln ndjsonLine
	for {
		line, start, ok := r.next()
		if !ok {
			break
		}
		if r.fin != nil {
			return r.corrupt(start, "structure", "end of file after fin line", "more lines")
		}
		if !r.dec.decode(line, &ln) {
			ln = ndjsonLine{}
			if err := json.Unmarshal(line, &ln); err != nil {
				return r.corrupt(start, "garbage", "payload line", err.Error())
			}
		}
		switch {
		case ln.E != nil && ln.S == nil && ln.Fin == nil:
			sink.Event(*ln.E)
		case ln.S != nil && ln.E == nil && ln.Fin == nil:
			sink.Sample(*ln.S)
		case ln.Fin != nil && ln.E == nil && ln.S == nil:
			if ln.Fin.EndCycle < 0 {
				return r.corrupt(start, "structure", "non-negative fin cycle", fmt.Sprintf("fin cycle %d", ln.Fin.EndCycle))
			}
			r.fin = ln.Fin
		default:
			return r.corrupt(start, "garbage", "one event/sample/fin payload", "none or several")
		}
	}
	if len(r.data) > 0 {
		return r.corrupt(r.off, "truncated", "newline-terminated line", fmt.Sprintf("%d trailing bytes", len(r.data)))
	}
	if r.fin == nil {
		return r.corrupt(r.off, "structure", "fin line", "no fin line")
	}
	return nil
}
