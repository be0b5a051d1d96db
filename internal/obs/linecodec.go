package obs

import (
	"encoding/json"
	"strconv"
)

// Line codec: the write side of every NDJSON spill line and oclmon SSE frame,
// hand-encoded without reflection. Its output is defined as encoding/json's —
// each Append function writes exactly the bytes json.Marshal writes for the
// same value (field order and omitempty from the struct tags, embedded stats
// flattened) — so the durable format, its checksums, and every byte-identity
// oracle are unaffected by which encoder produced a line. FuzzLineCodec holds
// the identity; TestLineCodecFieldsPinned fails when a struct gains a field
// the encoder does not know about. Decoding stays with encoding/json.

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
