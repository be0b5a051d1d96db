package obs

import (
	"bytes"
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
//
// A single-file spill is exactly one sealed segment's byte layout (see
// segment.go): segEncoder writes both, and ndjsonReader reads every form of
// the stream — a single-file spill, a sealed segment and a loaded log's
// sealed lines — by the same rules.

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
	enc  *segEncoder
	line []byte // reused encode buffer: steady-state lines allocate nothing
}

// NewNDJSONSink starts a spill stream on w, writing the header line
// immediately. The design name and sampling period travel in the header so a
// replay can rebuild Timeline.Design and Series.SampleEvery.
func NewNDJSONSink(w io.Writer, design string, sampleEvery int64) *NDJSONSink {
	return &NDJSONSink{enc: newSegEncoder(w, design, sampleEvery, false)}
}

// Event implements Sink.
func (s *NDJSONSink) Event(e Event) {
	s.line = appendEventLine(s.line[:0], &e)
	s.enc.payload(s.line, e.End, &e)
}

// Sample implements Sink.
func (s *NDJSONSink) Sample(sm Sample) {
	s.line = appendSampleLine(s.line[:0], &sm)
	s.enc.payload(s.line, sm.Cycle, nil)
}

// Finalize writes the terminal line, flushes, and reports any sticky error.
func (s *NDJSONSink) Finalize(endCycle int64) error {
	s.enc.fin(endCycle)
	if err := s.enc.flush(); err != nil {
		return fmt.Errorf("obs: ndjson: %w", err)
	}
	return nil
}

// ReplayNDJSON reads a spill stream back and replays it through a fresh
// buffering Recorder, returning the rebuilt timeline and metrics series. A
// stream written by NDJSONSink replays to records byte-identical (through
// WriteTimeline/WriteSeries) to the ones the originating run's Recorder held
// at Finalize. The stream is held to a sealed segment's rules, any design
// allowed: a missing terminal line is an error (the run died before Finalize
// and the spill is a truncated record), and every rejection is a
// *CorruptSegmentError.
func ReplayNDJSON(r io.Reader) (*Timeline, *Series, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: ndjson: %w", err)
	}
	sr := ndjsonReader{file: "ndjson stream", data: data}
	if err := sr.header(nil); err != nil {
		return nil, nil, err
	}
	rec := NewRecorder(sr.hdr.Design, Config{SampleEvery: sr.hdr.SampleEvery})
	if err := sr.feed(rec, segmentParse{allowFin: true, needFin: true, endCycle: -1}); err != nil {
		return nil, nil, err
	}
	if err := rec.Finalize(sr.fin.EndCycle); err != nil {
		return nil, nil, err
	}
	return rec.Timeline(), rec.Series(), nil
}

// ndjsonReader is the one reader of the header / payload / fin line stream.
// It splits newline-terminated lines and tracks their byte offsets, decodes
// and validates the header once, and decodes each later line once — through
// the line codec's fast path, or json.Unmarshal for a line outside its
// layout — holding it to exactly one of e/s/fin. Every rejection is a
// *CorruptSegmentError at the offending line's offset.
type ndjsonReader struct {
	dir, file string // name the stream in errors
	data      []byte // unread stream bytes
	// lines, when set, are pre-split payload lines (a loaded log's) read
	// instead of data; offsets then count bytes of the lines joined by
	// newlines.
	lines [][]byte
	off   int64 // stream offset of the next line

	hdr             ndjsonHeader // the decoded header
	events, samples int          // payload lines read so far
	fin             *ndjsonFinal // the fin line, once read
	dec             lineDecoder  // the payload lines' fast-path decoder
}

// segmentParse says what a stream may hold and how its bytes are verified.
type segmentParse struct {
	// header, when set, is the design and sampling period the header must
	// carry; nil accepts any version-1 header.
	header *ndjsonHeader
	// skipCRC skips the CRC32C comparison (the length check still runs).
	skipCRC bool
	// allowFin permits a fin line (last in the stream); needFin requires one.
	allowFin, needFin bool
	// endCycle is the fin line's required cycle (-1 to skip the check).
	endCycle int64
}

func (r *ndjsonReader) corrupt(off int64, reason, expected, got string) *CorruptSegmentError {
	return corrupt(r.dir, r.file, off, reason, expected, got)
}

// next splits off the next line (without its newline) and its offset. It
// reports false at the end of the stream, leaving any torn unterminated tail
// in data.
func (r *ndjsonReader) next() (line []byte, start int64, ok bool) {
	start = r.off
	if len(r.lines) > 0 {
		line, r.lines = r.lines[0], r.lines[1:]
	} else {
		i := bytes.IndexByte(r.data, '\n')
		if i < 0 {
			return nil, start, false
		}
		line, r.data = r.data[:i], r.data[i+1:]
	}
	r.off += int64(len(line)) + 1
	return line, start, true
}

// header reads the first line: a version-1 header with a non-negative
// sampling period, agreeing with want when want is set.
func (r *ndjsonReader) header(want *ndjsonHeader) error {
	line, off, ok := r.next()
	if !ok {
		return r.corrupt(off, "truncated", "header line", "end of file")
	}
	if err := json.Unmarshal(line, &r.hdr); err != nil {
		return r.corrupt(off, "garbage", "header line", err.Error())
	}
	h := r.hdr
	if h.Version != 1 || h.SampleEvery < 0 || (want != nil && (h.Design != want.Design || h.SampleEvery != want.SampleEvery)) {
		expected := "version-1 header"
		if want != nil {
			expected = fmt.Sprintf("header design %q sampleEvery %d", want.Design, want.SampleEvery)
		}
		return r.corrupt(off, "structure", expected, fmt.Sprintf("%+v", h))
	}
	return nil
}

// payloads reads every line after the header under p's fin rules, handing
// each event or sample line to visit (when set) decoded and raw; raw aliases
// the stream, and the decoded line is valid only during the call. The stream
// must end on a newline, and with wantLines >= 0 hold exactly that many
// payload lines.
func (r *ndjsonReader) payloads(p segmentParse, wantLines int, visit func(ln *ndjsonLine, raw []byte)) error {
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
			r.events++
		case ln.S != nil && ln.E == nil && ln.Fin == nil:
			r.samples++
		case ln.Fin != nil && ln.E == nil && ln.S == nil:
			if !p.allowFin {
				return r.corrupt(start, "structure", "no fin line here", "fin line")
			}
			if got := ln.Fin.EndCycle; got < 0 || (p.endCycle >= 0 && got != p.endCycle) {
				want := "non-negative fin cycle"
				if p.endCycle >= 0 {
					want = fmt.Sprintf("fin cycle %d", p.endCycle)
				}
				return r.corrupt(start, "structure", want, fmt.Sprintf("fin cycle %d", got))
			}
			r.fin = ln.Fin
			continue
		default:
			return r.corrupt(start, "garbage", "one event/sample/fin payload", "none or several")
		}
		if visit != nil {
			visit(&ln, line)
		}
	}
	if len(r.data) > 0 {
		return r.corrupt(r.off, "truncated", "newline-terminated line", fmt.Sprintf("%d trailing bytes", len(r.data)))
	}
	if n := r.events + r.samples; wantLines >= 0 && n != wantLines {
		return r.corrupt(r.off, "structure",
			fmt.Sprintf("%d payload lines (manifest)", wantLines), fmt.Sprintf("%d payload lines (sealed segment corrupt)", n))
	}
	if p.needFin && r.fin == nil {
		return r.corrupt(r.off, "structure", "fin line", "no fin line")
	}
	return nil
}

// feed streams every payload line into sink in order, without finalizing.
func (r *ndjsonReader) feed(sink Sink, p segmentParse) error {
	return r.payloads(p, -1, func(ln *ndjsonLine, _ []byte) {
		if ln.E != nil {
			sink.Event(*ln.E)
		} else {
			sink.Sample(*ln.S)
		}
	})
}
