package obs

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"oclfpga/internal/channel"
	"oclfpga/internal/mem"
)

// buildFlatRecorder records a representative mix through the hot-path ID
// methods: spans, instants, every detail template, several tracks, and
// fast-forward jumps.
func buildFlatRecorder() *Recorder {
	r := NewRecorder("flat-test", Config{SampleEvery: 100})
	kRun := r.Intern(KindUnitRun)
	kStall := r.Intern(KindChanStall)
	tUnit := r.Intern("unit:producer")
	tChan := r.Intern("chan:pipe")
	nRun := r.Intern("producer")
	nRead := r.Intern("read-stall")
	uProd := r.Intern("producer")
	r.SpanID(kRun, tUnit, nRun, 0, 500)
	r.SpanDetailID(kStall, tChan, nRead, 10, 60, UnitDetail(uProd))
	r.InstantID(r.Intern(KindLaunch), tUnit, nRun, 0, NoDetail)
	r.InstantID(r.Intern(KindBlame), r.Intern("sim:deadlock"), r.Intern("blame"),
		400, LitDetail(r.Intern("verdict: starved")))
	r.SpanDetailID(kStall, tChan, nRead, 70, 90, ValueDetail(-7))
	r.FFJump(101, 399)
	return r
}

func TestFlatCodecRoundTrip(t *testing.T) {
	r := buildFlatRecorder()
	if err := r.Finalize(500); err != nil {
		t.Fatal(err)
	}
	l := r.FlatLog()
	buf := l.AppendFlat(nil)
	got, err := DecodeFlat(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("decode(encode(log)) != log:\n got %+v\nwant %+v", got, l)
	}
	// The encoding is canonical: re-encoding the decoded log is byte-identical.
	if buf2 := got.AppendFlat(nil); !bytes.Equal(buf2, buf) {
		t.Fatal("encode(decode(buf)) != buf")
	}
	// Details render identically through the log and the recorder.
	for i, f := range l.Records {
		if l.Detail(f) != r.DetailOf(f) {
			t.Fatalf("record %d: log detail %q != recorder detail %q", i, l.Detail(f), r.DetailOf(f))
		}
	}
}

func TestFlatCodecRejectsMalformed(t *testing.T) {
	good := func() []byte {
		r := buildFlatRecorder()
		r.Finalize(500)
		return r.FlatLog().AppendFlat(nil)
	}()
	magic := []byte(flatMagic)
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   []byte("OBSFLAT9xxxxxxxx"),
		"retired v1":  []byte("OBSFLAT1\x01\x00\x00\x00\x00\x00\x00\x00"),
		"retired v2":  append([]byte("OBSFLAT2"), good[len(flatMagic):]...),
		"magic only":  magic,
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte(nil), good...), 0),
		"zero nstr":   append(append([]byte(nil), magic...), 0, 0, 0, 0),
		"huge nstr":   append(append([]byte(nil), magic...), 0xff, 0xff, 0xff, 0xff),
		"str too big": append(append([]byte(nil), magic...), 2, 0, 0, 0, 0xff, 0xff, 0, 0),
	}
	for name, bad := range badContainers(containerLog().AppendFlat(nil)) {
		cases[name] = bad
	}
	for name, data := range cases {
		if _, err := DecodeFlat(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A head-only read — all a pruning reader does — range-checks the index
	// entries itself, since no record decode follows to catch them.
	if _, err := decodeFlatHead(cases["index ID past table"]); err == nil {
		t.Error("head read accepted an index entry past the string table")
	}
	// Corrupting any single byte must never panic; if it decodes, re-encoding
	// must reproduce the mutated input exactly (canonical form).
	for i := range good {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x41
		l, err := DecodeFlat(mut)
		if err != nil {
			continue
		}
		if !bytes.Equal(l.AppendFlat(nil), mut) {
			t.Fatalf("byte %d: mutated input decoded to a non-canonical log", i)
		}
	}
}

// TestSampleFlatRoundTrip drives a fully populated Sample through the flat
// word stream and back out of Series.
func TestSampleFlatRoundTrip(t *testing.T) {
	r := NewRecorder("samp", Config{SampleEvery: 10})
	in := []Sample{
		{Cycle: -3}, // header packing must survive negative cycles
		{
			Cycle: 10,
			Channels: []ChannelSample{{
				Name: "pipe", Len: 4,
				Stats: channel.Stats{Writes: 9, Reads: 8, WriteStalls: 7,
					ReadStalls: 6, Dropped: 5, MaxOccupancy: 4},
			}},
			LSUs: []LSUSample{{
				Unit: "consumer", Array: "tbl", Kind: "burst-coalesced", IsStore: true,
				LSUStats: mem.LSUStats{Loads: 1, Stores: 2, LineFetches: 3,
					CoalesceHits: 4, TotalLoadLat: 55, MaxLoadLat: 6, StoreStalls: 7},
			}},
			Locals: []LocalSample{{Name: "ibuf", Reads: 11, Writes: 12}},
		},
		{Cycle: 20, Locals: []LocalSample{{Name: "ibuf", Reads: 13, Writes: 14}}},
	}
	for _, s := range in {
		r.AddSample(s)
	}
	if n := r.SampleCount(); n != len(in) {
		t.Fatalf("SampleCount = %d, want %d", n, len(in))
	}
	if c := r.LastSampleCycle(); c != 20 {
		t.Fatalf("LastSampleCycle = %d, want 20", c)
	}
	got := r.Series().Samples
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("samples did not round-trip:\n got %+v\nwant %+v", got, in)
	}
}

// TestFlatDropsAfterFinalize pins the post-Finalize behavior of the flat hot
// paths: every refused append is one counter increment — no record, no sample
// item, no materialization — and DroppedEvents reports the exact count.
func TestFlatDropsAfterFinalize(t *testing.T) {
	r := buildFlatRecorder()
	if err := r.Finalize(500); err != nil {
		t.Fatal(err)
	}
	events, jumps, samples := r.EventCount(), r.FFJumpCount(), r.SampleCount()
	streamWords := r.sampStream.n

	k := r.Intern("k")
	r.SpanID(k, k, k, 1, 2)
	r.InstantID(k, k, k, 3, NoDetail)
	r.FFJump(4, 5)
	sw := r.BeginSample(600)
	sw.Channel(k, 1, channel.Stats{})
	sw.LSU(k, k, k, false, mem.LSUStats{})
	sw.Local(k, 1, 2)
	sw.Commit()
	r.Add(Event{Kind: "k", Track: "t", Name: "n", Start: 1, End: 1})
	r.AddSample(Sample{Cycle: 700})

	// SpanID + InstantID + FFJump + BeginSample + Add + AddSample = 6 drops
	// (the writer methods after a refused BeginSample are inert, not drops).
	if d := r.DroppedEvents(); d != 6 {
		t.Fatalf("DroppedEvents = %d, want 6", d)
	}
	if r.EventCount() != events || r.FFJumpCount() != jumps || r.SampleCount() != samples {
		t.Fatal("post-Finalize appends changed the recorded counts")
	}
	if r.sampStream.n != streamWords {
		t.Fatal("post-Finalize sample was materialized into the word stream")
	}
	if tl := r.Timeline(); tl.DroppedEvents != 6 {
		t.Fatalf("Timeline.DroppedEvents = %d, want 6", tl.DroppedEvents)
	}
}

// TestHotPathAllocFree pins the tentpole claim: recording events and samples
// through the ID paths does not allocate per append. The only allowed
// allocations are the amortized segment/chunk acquisitions (one per 256
// records / one per ~4096 sample words), so the per-run average must sit well
// under one.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRecorder("alloc", Config{})
	kind := r.Intern(KindChanStall)
	track := r.Intern("chan:pipe")
	name := r.Intern("read-stall")
	unit := r.Intern("consumer")
	r.SpanDetailID(kind, track, name, 0, 1, UnitDetail(unit)) // warm the shard
	var cyc int64
	if avg := testing.AllocsPerRun(2000, func() {
		cyc++
		r.SpanDetailID(kind, track, name, cyc, cyc+1, UnitDetail(unit))
	}); avg > 0.05 {
		t.Fatalf("event append allocates %.3f allocs/op, want ~0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		cyc++
		sw := r.BeginSample(cyc)
		sw.Channel(track, 4, channel.Stats{Writes: cyc})
		sw.LSU(unit, track, name, false, mem.LSUStats{Loads: cyc})
		sw.Local(name, cyc, cyc)
		sw.Commit()
	}); avg > 0.05 {
		t.Fatalf("sample append allocates %.3f allocs/op, want ~0", avg)
	}
}

// TestReleaseReuseByteIdentical pins the pooling contract: releasing one
// recorder's storage and recording an identical run through a fresh recorder
// (which draws the same buffers back out of the pools) yields byte-identical
// serialized output — recycled segments carry no residue.
func TestReleaseReuseByteIdentical(t *testing.T) {
	snapshot := func() (string, string) {
		r := buildFlatRecorder()
		r.AddSample(Sample{Cycle: 100, Locals: []LocalSample{{Name: "ibuf", Reads: 1, Writes: 2}}})
		if err := r.Finalize(500); err != nil {
			t.Fatal(err)
		}
		var tl, se bytes.Buffer
		if err := WriteTimeline(&tl, r.Timeline()); err != nil {
			t.Fatal(err)
		}
		if err := WriteSeries(&se, r.Series()); err != nil {
			t.Fatal(err)
		}
		r.Release()
		return tl.String(), se.String()
	}
	tl1, se1 := snapshot()
	tl2, se2 := snapshot()
	if tl1 != tl2 || se1 != se2 {
		t.Fatal("output diverged across release/reuse")
	}
}

func TestReleaseContract(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}

	r := buildFlatRecorder()
	mustPanic("Release before Finalize", r.Release)
	if err := r.Finalize(500); err != nil {
		t.Fatal(err)
	}
	// Views materialized before Release stay valid afterwards.
	tl, se := r.Timeline(), r.Series()
	r.Release()
	r.Release() // idempotent
	if !r.Released() {
		t.Fatal("Released() = false after Release")
	}
	tl2, se2 := r.Timeline(), r.Series()
	if !reflect.DeepEqual(tl, tl2) || !reflect.DeepEqual(se, se2) {
		t.Fatal("cached views changed after Release")
	}
	// Counters survive; flat walks must refuse.
	if r.EventCount() == 0 || r.FFJumpCount() == 0 {
		t.Fatal("counts lost after Release")
	}
	mustPanic("VisitFlat", func() { r.VisitFlat(func(FlatRecord) {}) })
	mustPanic("FlatLog", func() { r.FlatLog() })

	// A released recorder that never materialized must panic rather than
	// return an empty view built from surrendered storage.
	r2 := buildFlatRecorder()
	r2.AddSample(Sample{Cycle: 100})
	if err := r2.Finalize(500); err != nil {
		t.Fatal(err)
	}
	r2.Release()
	mustPanic("Timeline after Release", func() { r2.Timeline() })
	mustPanic("Series after Release", func() { r2.Series() })
	// Appends after Release are refused through the finalized path.
	r2.FFJump(1, 2)
	if d := r2.DroppedEvents(); d != 1 {
		t.Fatalf("DroppedEvents = %d, want 1", d)
	}
}

// containerLog is a small segment container: events and samples
// interleaved, an end cycle, and an event with a detail so the index has
// kind, track and name entries. Its sample words are: the first sample's
// header (words 0-1, after one event) and a channel item (2-9), then the
// second's header (10-11, after two events), an LSU item (12-20) and a
// local item (21-23).
func containerLog() *FlatLog {
	b := newFlatBuilder()
	b.addEvent(&Event{Kind: KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 5, End: 40})
	b.addSample(&Sample{Cycle: 50, Channels: []ChannelSample{{Name: "pipe", Len: 2, Stats: channel.Stats{Writes: 3}}}})
	b.addEvent(&Event{Kind: KindLaunch, Track: "unit:k", Name: "go", Start: 0, End: 0, Instant: true, Detail: "x"})
	b.addSample(&Sample{Cycle: 100,
		LSUs:   []LSUSample{{Unit: "k", Array: "tbl", Kind: "burst", IsStore: true, LSUStats: mem.LSUStats{Stores: 4}}},
		Locals: []LocalSample{{Name: "ibuf", Reads: 1, Writes: 2}}})
	_, buf := b.finish("seg-000001.flat", 500, nil)
	l, err := DecodeFlat(buf)
	if err != nil {
		panic(err)
	}
	return l
}

// badContainers damages an encoded container's index and samples sections
// in the ways DecodeFlat must refuse. Most damage reseals the section's CRC,
// so only the structure or the cross-check against the records can catch
// it.
func badContainers(enc []byte) map[string][]byte {
	le := binary.LittleEndian
	idx := len(flatMagic)
	n := le.Uint32(enc[idx:])
	for idx += 4; n > 1; n-- {
		idx += 4 + int(le.Uint32(enc[idx:]))
	}
	idx += 4 // string table CRC
	end := idx + idxHeadBytes + int(le.Uint32(enc[idx+24:]))*idxEntryBytes
	reseal := func(at int, v uint32) []byte {
		out := append([]byte(nil), enc...)
		le.PutUint32(out[at:], v)
		le.PutUint32(out[end:], sectionSum(out[idx:end]))
		return out
	}
	smp := end + 4
	smpEnd := smp + 12 + 8*int(le.Uint32(enc[smp+8:]))
	word := func(i int) int { return smp + 12 + 8*i }
	resealSamples := func(at int, v uint64) []byte {
		out := append([]byte(nil), enc...)
		le.PutUint64(out[at:], v)
		le.PutUint32(out[smpEnd:], sectionSum(out[smp:smpEnd]))
		return out
	}
	stale := append([]byte(nil), enc...)
	stale[word(1)] ^= 1 // a sample cycle changed under a stale section CRC
	return map[string][]byte{
		"truncated index":          enc[:idx+idxHeadBytes/2],
		"index ID past table":      reseal(idx+idxHeadBytes, 99),  // role bits on an out-of-range ID
		"index kind count":         reseal(idx+idxHeadBytes+4, 7), // a count the records disagree with
		"index event count":        reseal(idx, 5),                // events != records
		"index sample count":       reseal(idx+4, 1),              // samples != sample headers
		"index cycle span":         reseal(idx+8, 1),              // first cycle moved
		"samples crc stale":        stale,
		"end cycle below -1":       resealSamples(smp, uint64(0xfffffffffffffffb)),
		"sample tag unknown":       resealSamples(word(0), 5|1<<32),
		"sample entry first":       resealSamples(word(0), sampTagChan|1<<32),
		"sample reserved bits":     resealSamples(word(0), sampTagHeader|1<<8|1<<32),
		"sample past records":      resealSamples(word(10), sampTagHeader|3<<32),
		"sample positions reverse": resealSamples(word(10), sampTagHeader|0<<32),
		"sample name past table":   resealSamples(word(2), sampTagChan|999<<32),
		"sample lsu kind past":     resealSamples(word(13), 1|999<<32),
		"sample item cut short":    resealSamples(word(21), sampTagChan|1<<32),
	}
}

// TestContainerKeepsStreamOrder round-trips an interleaved stream through a
// container: decoding yields the same events and samples, in the same
// order, and the end cycle.
func TestContainerKeepsStreamOrder(t *testing.T) {
	l := containerLog()
	got := l.appendPayloads(nil)
	kinds := ""
	for _, p := range got {
		if p.S != nil {
			kinds += "s"
		} else {
			kinds += "e"
		}
	}
	if kinds != "eses" || l.EndCycle != 500 {
		t.Fatalf("stream order %q, end cycle %d; want eses, 500", kinds, l.EndCycle)
	}
	want := Sample{Cycle: 100,
		LSUs:   []LSUSample{{Unit: "k", Array: "tbl", Kind: "burst", IsStore: true, LSUStats: mem.LSUStats{Stores: 4}}},
		Locals: []LocalSample{{Name: "ibuf", Reads: 1, Writes: 2}}}
	if !reflect.DeepEqual(*got[3].S, want) || got[2].E.Detail != "x" || got[1].S.Channels[0].Writes != 3 {
		t.Fatalf("payloads differ: %+v", got)
	}
	if idx := l.Index(); idx.Events != 2 || idx.Samples != 2 {
		t.Fatalf("index counts %d events, %d samples", idx.Events, idx.Samples)
	}
}

// TestFileFingerprintSeesSealedChanges pins why sections use another CRC
// than the manifest's file fingerprint: two containers that differ in one
// record, each with every section checksum consistent, must still differ in
// their whole-file CRC32C — the fingerprint resume and repair prove a
// regenerated segment by.
func TestFileFingerprintSeesSealedChanges(t *testing.T) {
	sum := func(start int64) uint32 {
		b := newFlatBuilder()
		b.addEvent(&Event{Kind: KindLaunch, Track: "unit:k", Name: "launch", Start: start, End: start, Instant: true})
		b.addSample(&Sample{Cycle: 50})
		info, _ := b.finish("seg-000001.flat", -1, nil)
		return info.CRC32C
	}
	if sum(0) == sum(3) {
		t.Fatal("whole-file CRC32C blind to a consistently re-sealed record")
	}
}
