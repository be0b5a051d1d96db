package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFlatCodec throws arbitrary byte streams at the flat binary codec.
// DecodeFlat must classify every input — a log or an error, never a panic —
// and the encoding is canonical: when an input decodes, re-encoding the log
// must reproduce the input byte for byte, string table, index, samples and
// all (the intern-table round-trip), and the re-decode must accept it
// again.
func FuzzFlatCodec(f *testing.F) {
	live := NewRecorder("fuzz", Config{})
	k := live.Intern(KindChanStall)
	tr := live.Intern("chan:pipe")
	n := live.Intern("read-stall")
	live.SpanDetailID(k, tr, n, 5, 40, UnitDetail(live.Intern("consumer")))
	live.InstantID(live.Intern(KindLaunch), live.Intern("unit:consumer"), n, 0, NoDetail)
	live.SpanDetailID(k, tr, n, 50, 60, ValueDetail(-3))
	live.Add(Event{Kind: KindBlame, Track: "sim:deadlock", Name: "blame",
		Start: 70, End: 70, Instant: true, Detail: "verdict: starved"})
	live.FFJump(41, 49)
	f.Add(live.FlatLog().AppendFlat(nil))
	f.Add((&FlatLog{Strings: []string{""}}).AppendFlat(nil))
	f.Add([]byte("OBSFLAT3"))
	f.Add([]byte("OBSFLAT2 retired magic"))
	f.Add([]byte(""))
	// A segment container: samples interleaved and an end cycle, then its
	// index and samples sections damaged in the ways DecodeFlat must refuse.
	enc := containerLog().AppendFlat(nil)
	f.Add(enc)
	for _, bad := range badContainers(enc) {
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// A pruning reader stops at the head: it must answer its index
		// without panicking whatever the records hold.
		if h, err := decodeFlatHead(data); err == nil {
			h.index()
		}
		l, err := DecodeFlat(data)
		if err != nil {
			return // rejection is fine; crashing is not
		}
		out := l.AppendFlat(nil)
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", data, out)
		}
		l2, err := DecodeFlat(out)
		if err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		// Details must render, and records and samples merge back into one
		// stream, without panicking for every accepted log.
		for _, rec := range l2.Records {
			_ = l2.Detail(rec)
		}
		if n := len(l2.appendPayloads(nil)); n != len(l2.Records)+sampleCount(l2.Samples) {
			t.Fatalf("%d payloads from %d records and %d samples", n, len(l2.Records), sampleCount(l2.Samples))
		}
	})
}

// FuzzReplayNDJSON throws arbitrary byte streams at the spill reader. Replay
// must classify every input — a rebuilt record or an error, never a panic —
// and a successful replay must be deterministic: replaying the same bytes
// twice yields byte-identical serialized records. An accepted stream is also
// a sealed segment: written as a complete one-segment spill, it must load
// and replay through LoadSegments and SegmentLog.Replay to the same records.
func FuzzReplayNDJSON(f *testing.F) {
	var clean bytes.Buffer
	s := NewNDJSONSink(&clean, "fuzz", 50)
	s.Event(Event{Kind: KindLaunch, Track: "unit:k", Name: "launch", Start: 0, End: 0, Instant: true})
	s.Event(Event{Kind: KindChanStall, Track: "chan:pipe", Name: "write", Start: 3, End: 9})
	s.Sample(Sample{Cycle: 50})
	s.Event(Event{Kind: KindFFJump, Track: "ff", Name: "jump", Start: 60, End: 90})
	if err := s.Finalize(100); err != nil {
		f.Fatal(err)
	}
	f.Add(clean.Bytes())
	// A truncated stream (terminal line cut off) and assorted malformed heads.
	lines := bytes.SplitAfter(clean.Bytes(), []byte("\n"))
	f.Add(bytes.Join(lines[:len(lines)-2], nil))
	f.Add([]byte(`{"obsNDJSON":1,"design":"d"}` + "\n" + `{"fin":{"endCycle":5}}` + "\n"))
	f.Add([]byte(`{"obsNDJSON":9}` + "\n"))
	f.Add([]byte("not json"))
	f.Add([]byte(""))
	// Lines carrying no payload or two: every stream reader refuses them.
	f.Add([]byte(`{"obsNDJSON":1,"design":"d"}` + "\n" + `{}` + "\n" + `{"fin":{"endCycle":5}}` + "\n"))
	f.Add([]byte(`{"obsNDJSON":1,"design":"d"}` + "\n" + `{"s":{"cycle":1},"fin":{"endCycle":5}}` + "\n" + `{"fin":{"endCycle":5}}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tl, ser, err := ReplayNDJSON(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; crashing is not
		}
		var a bytes.Buffer
		if err := WriteTimeline(&a, tl); err != nil {
			t.Fatalf("replayed timeline does not serialize: %v", err)
		}
		if err := WriteSeries(&a, ser); err != nil {
			t.Fatalf("replayed series does not serialize: %v", err)
		}
		tl2, ser2, err := ReplayNDJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second replay of accepted stream failed: %v", err)
		}
		var b bytes.Buffer
		if err := WriteTimeline(&b, tl2); err != nil {
			t.Fatal(err)
		}
		if err := WriteSeries(&b, ser2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("replay is not deterministic")
		}

		dir := t.TempDir()
		oneSegmentSpill(t, dir, data)
		log, err := LoadSegments(dir)
		if err != nil {
			t.Fatalf("accepted stream does not load as a one-segment spill: %v", err)
		}
		tl3, ser3, err := log.Replay()
		if err != nil {
			t.Fatalf("one-segment spill of an accepted stream does not replay: %v", err)
		}
		var c bytes.Buffer
		if err := WriteTimeline(&c, tl3); err != nil {
			t.Fatal(err)
		}
		if err := WriteSeries(&c, ser3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Fatalf("one-segment spill replays differently:\n%s\nvs\n%s", a.Bytes(), c.Bytes())
		}
	})
}

// FuzzManifest throws arbitrary bytes at the spill manifest parser. Malformed
// input must be an error, never a panic, and accepted manifests must be
// stable: re-marshalling and re-parsing an accepted manifest succeeds and
// preserves the segment list (the durable-truth fields).
func FuzzManifest(f *testing.F) {
	dir := f.TempDir()
	sink, err := NewSegmentSink(SegmentConfig{Dir: dir, Design: "d", SampleEvery: 50, MaxLines: 2})
	if err != nil {
		f.Fatal(err)
	}
	sink.Event(Event{Kind: KindLaunch, Track: "unit:k", Name: "launch", Start: 0, End: 0, Instant: true})
	sink.Event(Event{Kind: KindChanStall, Track: "chan:pipe", Name: "write", Start: 3, End: 9})
	sink.Sample(Sample{Cycle: 50})
	if err := sink.Finalize(100); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte(`{"obsSegments":2,"design":"d","segments":[]}`))
	f.Add([]byte(`{"obsSegments":2,"design":"d","segments":[{"file":"../etc/passwd","lines":1,"fileBytes":9}]}`))
	f.Add([]byte(`{"obsSegments":2,"segments":[{"file":"seg-000001.flat","lines":-4,"fileBytes":9}]}`))
	f.Add([]byte(`{"obsSegments":2,"segments":[{"file":"seg-000001.flat","lines":4}]}`))
	f.Add([]byte(`{"obsSegments":1,"design":"d","segments":[{"file":"seg-000001.ndjson","lines":1}]}`))
	f.Add([]byte(`{"obsSegments":9}`))
	f.Add([]byte(`{`))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		man, err := ParseManifest(data)
		if err != nil {
			return // rejection is fine; crashing is not
		}
		for i, seg := range man.Segments {
			if seg.File != segmentName(i+1) {
				t.Fatalf("accepted out-of-sequence segment name %q at %d", seg.File, i)
			}
		}
		out, err := json.Marshal(man)
		if err != nil {
			t.Fatalf("accepted manifest does not marshal: %v", err)
		}
		man2, err := ParseManifest(out)
		if err != nil {
			t.Fatalf("re-parse of accepted manifest failed: %v", err)
		}
		if len(man2.Segments) != len(man.Segments) || man2.Complete != man.Complete || man2.EndCycle != man.EndCycle {
			t.Fatal("manifest round-trip lost durable-truth fields")
		}
	})
}
