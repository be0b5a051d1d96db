package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"oclfpga/internal/channel"
	"oclfpga/internal/mem"
)

// fuzzSample builds a sample whose shape (how many channel/LSU/local entries,
// which omitempty counters are zero) is steered by shape's bits, so the
// fuzzer reaches every optional field in both states.
func fuzzSample(a, b string, x, y int64, shape uint16) Sample {
	pick := func(bit uint, v int64) int64 {
		if shape&(1<<bit) != 0 {
			return v
		}
		return 0
	}
	sm := Sample{Cycle: x}
	for i := 0; i < int(shape&3); i++ {
		sm.Channels = append(sm.Channels, ChannelSample{
			Name: a, Len: int(int32(y)),
			Stats: channel.Stats{
				Writes: x, Reads: y, WriteStalls: -x, ReadStalls: y ^ x,
				Dropped: pick(4, y), MaxOccupancy: int(pick(5, x)),
			},
		})
	}
	for i := 0; i < int(shape>>2&3); i++ {
		sm.LSUs = append(sm.LSUs, LSUSample{
			Unit: a, Array: b, Kind: a + b, IsStore: shape&(1<<6) != 0,
			LSUStats: mem.LSUStats{
				Loads: x, Stores: y, LineFetches: x + y, CoalesceHits: x - y,
				TotalLoadLat: y, MaxLoadLat: x, StoreStalls: pick(7, y),
			},
		})
	}
	for i := 0; i < int(shape>>8&3); i++ {
		sm.Locals = append(sm.Locals, LocalSample{Name: b, Reads: y, Writes: x})
	}
	if shape&(1<<10) != 0 && sm.Channels == nil {
		sm.Channels = []ChannelSample{} // empty, not nil: still omitted
	}
	return sm
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// FuzzLineCodec holds the line codec to its definition: for any event and
// sample, every Append function writes exactly json.Marshal's bytes — so a
// spill line, a sealed segment's checksum, and an SSE frame are the same
// whichever encoder produced them.
func FuzzLineCodec(f *testing.F) {
	f.Add(KindChanStall, "chan:pipe", "read-stall", "unit=consumer", int64(5), int64(40), false, uint16(0x7ff))
	f.Add(KindLaunch, "unit:k", "go", "", int64(0), int64(0), true, uint16(0))
	f.Add("<script>", "a&b", `q"uote\back`, "x>y", int64(-1), int64(1), true, uint16(0x155))
	f.Add("\x00\x01\t\n\r\x1f", "\x7f", "café", "line\u2028sep\u2029", int64(math.MinInt64), int64(math.MaxInt64), false, uint16(0x2aa))
	f.Add("\xff\xfe", "bad\xc3(utf8", "\xed\xa0\x80", "\U0001F600", int64(math.MaxInt64), int64(math.MinInt64), true, uint16(0x400))
	f.Add("", "", "", "", int64(0), int64(1000), false, uint16(0xffff))

	f.Fuzz(func(t *testing.T, kind, track, name, detail string, x, y int64, instant bool, shape uint16) {
		e := Event{Kind: kind, Track: track, Name: name, Start: x, End: y, Instant: instant, Detail: detail}
		if got, want := AppendEventJSON(nil, &e), mustMarshal(t, e); !bytes.Equal(got, want) {
			t.Fatalf("AppendEventJSON(%+v)\n got  %s\n want %s", e, got, want)
		}
		if got, want := appendEventLine(nil, &e), mustMarshal(t, ndjsonLine{E: &e}); !bytes.Equal(got, want) {
			t.Fatalf("event line\n got  %s\n want %s", got, want)
		}
		sm := fuzzSample(track, name, x, y, shape)
		if got, want := AppendSampleJSON(nil, &sm), mustMarshal(t, sm); !bytes.Equal(got, want) {
			t.Fatalf("AppendSampleJSON(%+v)\n got  %s\n want %s", sm, got, want)
		}
		if got, want := appendSampleLine(nil, &sm), mustMarshal(t, ndjsonLine{S: &sm}); !bytes.Equal(got, want) {
			t.Fatalf("sample line\n got  %s\n want %s", got, want)
		}
		fin := mustMarshal(t, ndjsonLine{Fin: &ndjsonFinal{EndCycle: x}})
		if got := appendFinLine(nil, x); !bytes.Equal(got, fin) {
			t.Fatalf("fin line\n got  %s\n want %s", got, fin)
		}
		hdr := mustMarshal(t, ndjsonHeader{Version: 1, Design: detail, SampleEvery: y})
		if got := appendHeaderLine(nil, detail, y); !bytes.Equal(got, hdr) {
			t.Fatalf("header line\n got  %s\n want %s", got, hdr)
		}
		// Appending extends the caller's buffer without disturbing it.
		prefix := []byte("prefix")
		if got := AppendEventJSON(prefix, &e); !bytes.HasPrefix(got, prefix) {
			t.Fatalf("AppendEventJSON clobbered its destination: %s", got)
		}
	})
}

// plainJSONString reports whether appendJSONString copies s verbatim — the
// strings the decoder's fast path reads.
func plainJSONString(s string) bool {
	return !strings.ContainsFunc(s, func(r rune) bool {
		return r < 0x20 || r > 0x7e || strings.ContainsRune(`"\<>&`, r)
	})
}

// checkFastDecode holds the decoder's fast path to its rule on one line: it
// declines, or it decodes exactly what json.Unmarshal decodes. It reports
// whether the fast path took the line.
func checkFastDecode(t *testing.T, d *lineDecoder, line []byte) bool {
	t.Helper()
	var fast ndjsonLine
	if !d.decode(line, &fast) {
		return false
	}
	var want ndjsonLine
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("fast path accepted %q, which json.Unmarshal rejects: %v", line, err)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("fast path decoded %q differently:\n got  %s\n want %s", line, dumpLine(fast), dumpLine(want))
	}
	return true
}

func dumpLine(ln ndjsonLine) string {
	return fmt.Sprintf("e=%+v s=%+v fin=%+v", ln.E, ln.S, ln.Fin)
}

// FuzzLineDecode holds the line decoder to its definition. On arbitrary
// bytes the fast path either declines or decodes exactly json.Unmarshal's
// ndjsonLine. On the line encoder's output for any event, sample and fin
// whose strings are plain printable ASCII, the fast path always takes the
// line — never the json.Unmarshal fallback — and round-trips the value.
func FuzzLineDecode(f *testing.F) {
	ev := `{"e":{"kind":"chan-stall","track":"chan:pipe","name":"read-stall","start":5,"end":40,"detail":"unit=consumer"}}`
	for _, line := range []string{
		ev,
		`{"s":{"cycle":1000,"channels":[{"name":"pipe","len":2,"writes":9,"reads":7,"writeStalls":1,"readStalls":0,"maxOccupancy":4}],"lsus":[{"unit":"k","array":"a","kind":"burst","isStore":false,"loads":3,"stores":0,"lineFetches":1,"coalesceHits":2,"totalLoadLat":90,"maxLoadLat":40}],"locals":[{"name":"buf","reads":1,"writes":2}]}}`,
		`{"fin":{"endCycle":41}}`,
		`{"e":{"kind":"a\u003cb","track":"t","name":"n","start":0,"end":0}}`,            // escaped
		`{"e":{"kind":"café","track":"t","name":"n","start":0,"end":0}}`,                // non-ASCII
		`{"e":{"kind":"k","track":"t","name":"n","start":-0,"end":0}}`,                  // -0
		`{"e":{"kind":"k","track":"t","name":"n","start":007,"end":0}}`,                 // leading zero
		`{"e":{"kind":"k","track":"t","name":"n","start":9223372036854775808,"end":0}}`, // overflow
		`{"e":{"kind":"k","track":"t","name":"n","start":-9223372036854775808,"end":9223372036854775807}}`,
		`{"e":{"kind":"k","kind":"k2","track":"t","name":"n","start":0,"end":0}}`, // duplicate key
		`{"e":{"track":"t","kind":"k","name":"n","start":0,"end":0}}`,             // reordered
		`{"e":null}`,
		`{"e":{"kind":null,"track":"t","name":"n","start":0,"end":0}}`,
		`{"s":{"cycle":1,"channels":[]}}`,
		`{"s":{"cycle":1,"channels":null}}`,
		`{"e":{"kind":"k","track":"t","name":"n","start":0,"end":0,"instant":false,"detail":""}}`,
		`{"fin":{"endCycle":1.5}}`,
		ev + ` `, // trailing bytes
		ev[:len(ev)-1],
	} {
		f.Add([]byte(line), KindChanStall, "chan:pipe", "read-stall", "unit=consumer", int64(5), int64(40), false, uint16(0x7ff))
	}
	f.Add([]byte(nil), "<script>", "a&b", `q"uote\back`, "x>y", int64(-1), int64(1), true, uint16(0x155))
	f.Add([]byte(nil), "\x00\t", "\x7f", "café", "\xff\xfe", int64(math.MinInt64), int64(math.MaxInt64), false, uint16(0x2aa))
	f.Add([]byte(nil), "", "", "", "", int64(0), int64(1000), true, uint16(0xffff))

	f.Fuzz(func(t *testing.T, line []byte, kind, track, name, detail string, x, y int64, instant bool, shape uint16) {
		var d lineDecoder
		checkFastDecode(t, &d, line)

		e := Event{Kind: kind, Track: track, Name: name, Start: x, End: y, Instant: instant, Detail: detail}
		sm := fuzzSample(track, name, x, y, shape)
		evLine, smLine, finLine := appendEventLine(nil, &e), appendSampleLine(nil, &sm), appendFinLine(nil, x)
		evFast := checkFastDecode(t, &d, evLine)
		smFast := checkFastDecode(t, &d, smLine)
		if !checkFastDecode(t, &d, finLine) {
			t.Fatalf("fin line %s fell back to json.Unmarshal", finLine)
		}
		if !plainJSONString(kind) || !plainJSONString(track) || !plainJSONString(name) || !plainJSONString(detail) {
			return // escaped strings may take either path; checkFastDecode held both
		}
		if !evFast || !smFast {
			t.Fatalf("encoder output fell back to json.Unmarshal (event %v, sample %v):\n%s\n%s", evFast, smFast, evLine, smLine)
		}
		var ln ndjsonLine
		if d.decode(evLine, &ln); *ln.E != e {
			t.Fatalf("event round trip: got %+v, want %+v", *ln.E, e)
		}
		if len(sm.Channels) == 0 {
			sm.Channels = nil // an empty list is omitted, so it decodes as nil
		}
		if d.decode(smLine, &ln); !reflect.DeepEqual(*ln.S, sm) {
			t.Fatalf("sample round trip: got %+v, want %+v", *ln.S, sm)
		}
	})
}

// fillFields sets every field of v, embedded structs and one element of each
// slice included, to a distinct non-zero value.
func fillFields(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillFields(v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillFields(v.Index(0), n)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		panic(fmt.Sprintf("fillFields: unhandled %v", v.Type()))
	}
}

// TestLineCodecFieldsPinned pins the field names and JSON tags of every type
// the line codec hand-encodes and hand-decodes. A new or renamed field fails
// here — update the encoder and the decoder in linecodec.go (and this list)
// in the same change, or the field silently drops out of spills, SSE frames
// and the lines a reader decodes. Independently of the list, an event and a
// sample with every field set must take the decoder's fast path and decode
// whole: a field json.Marshal writes but the decoder does not know declines.
func TestLineCodecFieldsPinned(t *testing.T) {
	var e Event
	var sm Sample
	n := 0
	fillFields(reflect.ValueOf(&e).Elem(), &n)
	fillFields(reflect.ValueOf(&sm).Elem(), &n)
	var d lineDecoder
	for _, line := range [][]byte{mustMarshal(t, ndjsonLine{E: &e}), mustMarshal(t, ndjsonLine{S: &sm})} {
		if !checkFastDecode(t, &d, line) {
			t.Errorf("a line with every field set falls back to json.Unmarshal — teach lineDecoder the new field:\n%s", line)
		}
	}

	pinned := map[reflect.Type][]string{
		reflect.TypeOf(Event{}): {
			`Kind json:"kind"`, `Track json:"track"`, `Name json:"name"`,
			`Start json:"start"`, `End json:"end"`,
			`Instant json:"instant,omitempty"`, `Detail json:"detail,omitempty"`,
		},
		reflect.TypeOf(Sample{}): {
			`Cycle json:"cycle"`, `Channels json:"channels,omitempty"`,
			`LSUs json:"lsus,omitempty"`, `Locals json:"locals,omitempty"`,
		},
		reflect.TypeOf(ChannelSample{}): {`Name json:"name"`, `Len json:"len"`, `Stats `},
		reflect.TypeOf(LSUSample{}): {
			`Unit json:"unit"`, `Array json:"array"`, `Kind json:"kind"`,
			`IsStore json:"isStore"`, `LSUStats `,
		},
		reflect.TypeOf(LocalSample{}): {`Name json:"name"`, `Reads json:"reads"`, `Writes json:"writes"`},
		reflect.TypeOf(channel.Stats{}): {
			`Writes json:"writes"`, `Reads json:"reads"`, `WriteStalls json:"writeStalls"`,
			`ReadStalls json:"readStalls"`, `Dropped json:"dropped,omitempty"`,
			`MaxOccupancy json:"maxOccupancy,omitempty"`,
		},
		reflect.TypeOf(mem.LSUStats{}): {
			`Loads json:"loads"`, `Stores json:"stores"`, `LineFetches json:"lineFetches"`,
			`CoalesceHits json:"coalesceHits"`, `TotalLoadLat json:"totalLoadLat"`,
			`MaxLoadLat json:"maxLoadLat"`, `StoreStalls json:"storeStalls,omitempty"`,
		},
	}
	for typ, want := range pinned {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			fld := typ.Field(i)
			got = append(got, fld.Name+" "+string(fld.Tag))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v fields changed — update linecodec.go to encode and decode them:\n got  %q\n want %q", typ, got, want)
		}
	}
}

// TestSinkSteadyStateAllocs is the zero-allocation gate for the spill write
// path: between rotations, a segment or NDJSON sink encodes and writes an
// event or sample line without allocating (the encode buffer is reused and
// the sidecar builder's vocabulary is already interned).
func TestSinkSteadyStateAllocs(t *testing.T) {
	ev := Event{Kind: KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 5, End: 40, Detail: "unit=consumer"}
	sm := fuzzSample("chan:pipe", "tbl", 1000, 7, 0x3ff)
	seg, err := NewSegmentSink(SegmentConfig{Dir: t.TempDir(), Design: "allocs", SampleEvery: 1000, MaxLines: 1 << 20, MaxBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	nd := NewNDJSONSink(io.Discard, "allocs", 1000)
	// Warm up: open the segment, grow the encode buffers, intern the strings.
	seg.Event(ev)
	seg.Sample(sm)
	nd.Event(ev)
	for name, op := range map[string]func(){
		"SegmentSink.Event":  func() { seg.Event(ev) },
		"SegmentSink.Sample": func() { seg.Sample(sm) },
		"NDJSONSink.Event":   func() { nd.Event(ev) },
	} {
		if n := testing.AllocsPerRun(1000, op); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
	if err := seg.Finalize(41); err != nil {
		t.Fatal(err)
	}
	if err := nd.Finalize(41); err != nil {
		t.Fatal(err)
	}

	// AppendFlat sizes its output exactly: one allocation, however large.
	fl := &FlatLog{Strings: []string{"", KindChanStall, "chan:pipe", "read-stall"}}
	for i := 0; i < 500; i++ {
		fl.Records = append(fl.Records, FlatRecord{Seq: uint64(i), Kind: 1, Track: 2, Name: 3, Start: int64(i), End: int64(i)})
	}
	if n := testing.AllocsPerRun(10, func() { fl.AppendFlat(nil) }); n != 1 {
		t.Errorf("AppendFlat: %v allocs, want 1", n)
	}
}
