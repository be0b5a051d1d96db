package obs

import (
	"encoding/json"
	"slices"
	"strconv"
)

// Line codec: every NDJSON spill line and oclmon SSE frame, encoded and
// decoded without reflection.
//
// The write side's output is defined as encoding/json's — each Append
// function writes exactly the bytes json.Marshal writes for the same value
// (field order and omitempty from the struct tags, embedded stats
// flattened) — so the durable format, its checksums, and every byte-identity
// oracle are unaffected by which encoder produced a line. FuzzLineCodec holds
// that identity.
//
// The read side (lineDecoder) is a fast path for payload lines in exactly
// the layout the write side produces: fixed key order, no whitespace,
// canonical integers, plain printable-ASCII strings. Any other line — escapes,
// non-ASCII, reordered or unknown keys, null, trailing bytes — is declined
// and decoded by json.Unmarshal instead, so what a reader accepts, the values
// it decodes, and every error it reports are encoding/json's. FuzzLineDecode
// holds the fast path to that rule. TestLineCodecFieldsPinned fails when a
// struct gains a field either side does not know about.

// AppendEventJSON appends json.Marshal(e) to b.
func AppendEventJSON(b []byte, e *Event) []byte {
	b = append(b, `{"kind":`...)
	b = appendJSONString(b, e.Kind)
	b = append(b, `,"track":`...)
	b = appendJSONString(b, e.Track)
	b = append(b, `,"name":`...)
	b = appendJSONString(b, e.Name)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, e.Start, 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, e.End, 10)
	if e.Instant {
		b = append(b, `,"instant":true`...)
	}
	if e.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, e.Detail)
	}
	return append(b, '}')
}

// AppendSampleJSON appends json.Marshal(s) to b.
func AppendSampleJSON(b []byte, s *Sample) []byte {
	b = append(b, `{"cycle":`...)
	b = strconv.AppendInt(b, s.Cycle, 10)
	b = appendList(b, `,"channels":[`, s.Channels, appendChannelSample)
	b = appendList(b, `,"lsus":[`, s.LSUs, appendLSUSample)
	b = appendList(b, `,"locals":[`, s.Locals, appendLocalSample)
	return append(b, '}')
}

// appendList appends xs as the JSON array field that key opens, or nothing
// when xs is empty (the fields' omitempty rule).
func appendList[T any](b []byte, key string, xs []T, enc func([]byte, *T) []byte) []byte {
	if len(xs) == 0 {
		return b
	}
	b = append(b, key...)
	for i := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = enc(b, &xs[i])
	}
	return append(b, ']')
}

func appendChannelSample(b []byte, c *ChannelSample) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, c.Name)
	b = append(b, `,"len":`...)
	b = strconv.AppendInt(b, int64(c.Len), 10)
	b = append(b, `,"writes":`...)
	b = strconv.AppendInt(b, c.Writes, 10)
	b = append(b, `,"reads":`...)
	b = strconv.AppendInt(b, c.Reads, 10)
	b = append(b, `,"writeStalls":`...)
	b = strconv.AppendInt(b, c.WriteStalls, 10)
	b = append(b, `,"readStalls":`...)
	b = strconv.AppendInt(b, c.ReadStalls, 10)
	if c.Dropped != 0 {
		b = append(b, `,"dropped":`...)
		b = strconv.AppendInt(b, c.Dropped, 10)
	}
	if c.MaxOccupancy != 0 {
		b = append(b, `,"maxOccupancy":`...)
		b = strconv.AppendInt(b, int64(c.MaxOccupancy), 10)
	}
	return append(b, '}')
}

func appendLSUSample(b []byte, l *LSUSample) []byte {
	b = append(b, `{"unit":`...)
	b = appendJSONString(b, l.Unit)
	b = append(b, `,"array":`...)
	b = appendJSONString(b, l.Array)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, l.Kind)
	b = append(b, `,"isStore":`...)
	b = strconv.AppendBool(b, l.IsStore)
	b = append(b, `,"loads":`...)
	b = strconv.AppendInt(b, l.Loads, 10)
	b = append(b, `,"stores":`...)
	b = strconv.AppendInt(b, l.Stores, 10)
	b = append(b, `,"lineFetches":`...)
	b = strconv.AppendInt(b, l.LineFetches, 10)
	b = append(b, `,"coalesceHits":`...)
	b = strconv.AppendInt(b, l.CoalesceHits, 10)
	b = append(b, `,"totalLoadLat":`...)
	b = strconv.AppendInt(b, l.TotalLoadLat, 10)
	b = append(b, `,"maxLoadLat":`...)
	b = strconv.AppendInt(b, l.MaxLoadLat, 10)
	if l.StoreStalls != 0 {
		b = append(b, `,"storeStalls":`...)
		b = strconv.AppendInt(b, l.StoreStalls, 10)
	}
	return append(b, '}')
}

func appendLocalSample(b []byte, l *LocalSample) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, l.Name)
	b = append(b, `,"reads":`...)
	b = strconv.AppendInt(b, l.Reads, 10)
	b = append(b, `,"writes":`...)
	b = strconv.AppendInt(b, l.Writes, 10)
	return append(b, '}')
}

// appendJSONString appends s as a JSON string. Strings of plain printable
// ASCII — every simulator-generated name — are copied between quotes; any
// other byte defers the whole string to encoding/json, so HTML escaping,
// control characters, U+2028/U+2029, and invalid UTF-8 all render exactly as
// json.Marshal renders them.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendHeaderLine appends json.Marshal(ndjsonHeader{1, design, sampleEvery}).
func appendHeaderLine(b []byte, design string, sampleEvery int64) []byte {
	b = append(b, `{"obsNDJSON":1,"design":`...)
	b = appendJSONString(b, design)
	if sampleEvery != 0 {
		b = append(b, `,"sampleEvery":`...)
		b = strconv.AppendInt(b, sampleEvery, 10)
	}
	return append(b, '}')
}

// appendEventLine appends json.Marshal(ndjsonLine{E: e}).
func appendEventLine(b []byte, e *Event) []byte {
	b = append(b, `{"e":`...)
	b = AppendEventJSON(b, e)
	return append(b, '}')
}

// appendSampleLine appends json.Marshal(ndjsonLine{S: s}).
func appendSampleLine(b []byte, s *Sample) []byte {
	b = append(b, `{"s":`...)
	b = AppendSampleJSON(b, s)
	return append(b, '}')
}

// appendFinLine appends json.Marshal(ndjsonLine{Fin: &ndjsonFinal{endCycle}}).
func appendFinLine(b []byte, endCycle int64) []byte {
	b = append(b, `{"fin":{"endCycle":`...)
	b = strconv.AppendInt(b, endCycle, 10)
	return append(b, "}}"...)
}

// lineDecoder decodes payload lines written by appendEventLine,
// appendSampleLine and appendFinLine without reflection. decode reports false
// for any line outside that layout, and the caller falls back to
// json.Unmarshal. Parsing is sticky: after the first mismatch every later
// step fails too, and decode declines.
type lineDecoder struct {
	b    []byte            // unread bytes of the current line
	ok   bool              // no mismatch yet on the current line
	strs map[string]string // interned strings, up to maxInternedStrings
	ev   Event             // the decoded event, reused line to line
	sm   Sample            // the decoded sample; its lists are fresh per line
	// Scratch lists: a sample's entries are parsed here and copied out once.
	chans  []ChannelSample
	lsus   []LSUSample
	locals []LocalSample
}

// maxInternedStrings bounds a decoder's intern table: names, tracks and
// kinds repeat, but a stream whose details are all distinct must not double
// its memory in the table.
const maxInternedStrings = 4096

// decode parses line into ln, reporting whether it took the fast path. A
// decoded event or sample is valid until the next call.
func (d *lineDecoder) decode(line []byte, ln *ndjsonLine) bool {
	*ln = ndjsonLine{}
	d.b, d.ok = line, true
	switch {
	case d.opt(`{"e":`):
		d.event(&d.ev)
		ln.E = &d.ev
	case d.opt(`{"s":`):
		d.sample(&d.sm)
		ln.S = &d.sm
	case d.opt(`{"fin":{"endCycle":`):
		ln.Fin = &ndjsonFinal{EndCycle: d.int()}
		d.lit("}")
	default:
		return false
	}
	d.lit("}")
	return d.ok && len(d.b) == 0
}

func (d *lineDecoder) event(e *Event) {
	d.lit(`{"kind":`)
	e.Kind = d.str()
	d.lit(`,"track":`)
	e.Track = d.str()
	d.lit(`,"name":`)
	e.Name = d.str()
	d.lit(`,"start":`)
	e.Start = d.int()
	d.lit(`,"end":`)
	e.End = d.int()
	e.Instant = d.opt(`,"instant":true`)
	e.Detail = ""
	if d.opt(`,"detail":`) {
		e.Detail = d.str()
	}
	d.lit("}")
}

func (d *lineDecoder) sample(s *Sample) {
	d.lit(`{"cycle":`)
	s.Cycle = d.int()
	s.Channels = decodeList(d, `,"channels":[`, &d.chans, (*lineDecoder).channelSample)
	s.LSUs = decodeList(d, `,"lsus":[`, &d.lsus, (*lineDecoder).lsuSample)
	s.Locals = decodeList(d, `,"locals":[`, &d.locals, (*lineDecoder).localSample)
	d.lit("}")
}

// decodeList parses the non-empty JSON array field that key opens into a
// fresh slice, or returns nil when the field is absent (omitempty).
func decodeList[T any](d *lineDecoder, key string, scratch *[]T, dec func(*lineDecoder, *T)) []T {
	if !d.opt(key) {
		return nil
	}
	xs := (*scratch)[:0]
	for {
		var zero T
		xs = append(xs, zero)
		dec(d, &xs[len(xs)-1])
		if !d.opt(",") {
			break
		}
	}
	d.lit("]")
	*scratch = xs
	if !d.ok {
		return nil
	}
	return slices.Clone(xs)
}

func (d *lineDecoder) channelSample(c *ChannelSample) {
	d.lit(`{"name":`)
	c.Name = d.str()
	d.lit(`,"len":`)
	c.Len = d.intN()
	d.lit(`,"writes":`)
	c.Writes = d.int()
	d.lit(`,"reads":`)
	c.Reads = d.int()
	d.lit(`,"writeStalls":`)
	c.WriteStalls = d.int()
	d.lit(`,"readStalls":`)
	c.ReadStalls = d.int()
	if d.opt(`,"dropped":`) {
		c.Dropped = d.int()
	}
	if d.opt(`,"maxOccupancy":`) {
		c.MaxOccupancy = d.intN()
	}
	d.lit("}")
}

func (d *lineDecoder) lsuSample(l *LSUSample) {
	d.lit(`{"unit":`)
	l.Unit = d.str()
	d.lit(`,"array":`)
	l.Array = d.str()
	d.lit(`,"kind":`)
	l.Kind = d.str()
	d.lit(`,"isStore":`)
	l.IsStore = d.opt("true")
	if !l.IsStore {
		d.lit("false")
	}
	d.lit(`,"loads":`)
	l.Loads = d.int()
	d.lit(`,"stores":`)
	l.Stores = d.int()
	d.lit(`,"lineFetches":`)
	l.LineFetches = d.int()
	d.lit(`,"coalesceHits":`)
	l.CoalesceHits = d.int()
	d.lit(`,"totalLoadLat":`)
	l.TotalLoadLat = d.int()
	d.lit(`,"maxLoadLat":`)
	l.MaxLoadLat = d.int()
	if d.opt(`,"storeStalls":`) {
		l.StoreStalls = d.int()
	}
	d.lit("}")
}

func (d *lineDecoder) localSample(l *LocalSample) {
	d.lit(`{"name":`)
	l.Name = d.str()
	d.lit(`,"reads":`)
	l.Reads = d.int()
	d.lit(`,"writes":`)
	l.Writes = d.int()
	d.lit("}")
}

// fail ends the fast path for this line.
func (d *lineDecoder) fail() { d.b, d.ok = nil, false }

// opt consumes s if the input continues with it.
func (d *lineDecoder) opt(s string) bool {
	if len(d.b) < len(s) || string(d.b[:len(s)]) != s {
		return false
	}
	d.b = d.b[len(s):]
	return true
}

// lit consumes s, which the input must continue with.
func (d *lineDecoder) lit(s string) {
	if !d.opt(s) {
		d.fail()
	}
}

// int parses a canonical base-10 int64: no leading zeros, no "-0", no
// fraction or exponent, and no overflow.
func (d *lineDecoder) int() int64 {
	b := d.b
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	// 19 digits hold every int64; a leading zero is canonical only alone.
	if n == 0 || n > 19 || (b[0] == '0' && (n > 1 || neg)) {
		d.fail()
		return 0
	}
	var u uint64
	for _, c := range b[:n] {
		u = u*10 + uint64(c-'0')
	}
	d.b = b[n:]
	switch {
	case !neg && u <= 1<<63-1:
		return int64(u)
	case neg && u <= 1<<63:
		return int64(-u)
	}
	d.fail()
	return 0
}

// intN parses an int field, declining values the platform's int cannot hold.
func (d *lineDecoder) intN() int {
	v := d.int()
	if int64(int(v)) != v {
		d.fail()
	}
	return int(v)
}

// str parses a string of printable ASCII without quote or backslash — the
// strings appendJSONString copies verbatim — interning it.
func (d *lineDecoder) str() string {
	if len(d.b) == 0 || d.b[0] != '"' {
		d.fail()
		return ""
	}
	for i := 1; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := d.intern(d.b[1:i])
			d.b = d.b[i+1:]
			return s
		case c < 0x20 || c > 0x7e || c == '\\':
			d.fail()
			return ""
		}
	}
	d.fail()
	return ""
}

func (d *lineDecoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.strs == nil {
		d.strs = map[string]string{}
	}
	if len(d.strs) < maxInternedStrings {
		d.strs[s] = s
	}
	return s
}
