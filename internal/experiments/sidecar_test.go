package experiments

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oclfpga/internal/obs"
	"oclfpga/internal/obs/analyze"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/obs/scrub"
)

// sidecarFixture spills a small simbench run across several segments.
func sidecarFixture(t *testing.T) (string, *obs.Manifest) {
	t.Helper()
	dir := t.TempDir()
	if _, err := SpillSimBench(16, dir, 64, 256, 24); err != nil {
		t.Fatal(err)
	}
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) < 3 {
		t.Fatalf("fixture too small: %d segments", len(man.Segments))
	}
	return dir, man
}

// spillAnswers is what the debugging tools say about a spill: a query over
// the whole run, and the spill diff's attribution.
func spillAnswers(t *testing.T, dir string) (string, string) {
	t.Helper()
	res, err := query.Run(dir, query.Query{From: 0, To: 1 << 40, HasRange: true})
	if err != nil {
		t.Fatal(err)
	}
	side, err := diff.AttributeSpill(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := json.Marshal(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(side.Attr)
	if err != nil {
		t.Fatal(err)
	}
	return string(q), string(a)
}

// truthAnswers answers the same questions from the NDJSON truth alone: a
// full scan and a full replay.
func truthAnswers(t *testing.T, dir string) (string, string) {
	t.Helper()
	res, err := query.ScanAll(dir, query.Query{From: 0, To: 1 << 40, HasRange: true})
	if err != nil {
		t.Fatal(err)
	}
	log, err := obs.LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl, _, err := log.Replay()
	if err != nil {
		t.Fatal(err)
	}
	q, err := json.Marshal(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(analyze.Attribute(tl))
	if err != nil {
		t.Fatal(err)
	}
	return string(q), string(a)
}

// TestSwappedSidecarServesOwnEvents leaves one segment's .flat as a copy of
// another segment's with the same event count — what an interrupted sidecar
// write leaves behind in a reused spill directory. The sidecar's pin names
// the other segment's bytes, so the query engine and the spill diff must
// rebuild it and answer from the segment's own events.
func TestSwappedSidecarServesOwnEvents(t *testing.T) {
	dir, man := sidecarFixture(t)
	counts := map[int][]obs.SegmentInfo{}
	for _, seg := range man.Segments {
		events, _, err := obs.ReadSegmentEvents(dir, seg)
		if err != nil {
			t.Fatal(err)
		}
		counts[len(events)] = append(counts[len(events)], seg)
	}
	var a, b obs.SegmentInfo
	for _, segs := range counts {
		if len(segs) >= 2 {
			a, b = segs[0], segs[1]
			break
		}
	}
	if a.File == "" {
		t.Fatalf("no two segments share an event count: %v", counts)
	}
	wantQ, wantA := truthAnswers(t, dir)
	other, err := os.ReadFile(filepath.Join(dir, obs.FlatSegmentName(b.File)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, obs.FlatSegmentName(a.File)), other, 0o666); err != nil {
		t.Fatal(err)
	}
	gotQ, gotA := spillAnswers(t, dir)
	if gotQ != wantQ {
		t.Errorf("query served another segment's events through %s's sidecar", a.File)
	}
	if gotA != wantA {
		t.Errorf("spill diff attributed another segment's events through %s's sidecar", a.File)
	}
}

// v1Flat encodes a log in the retired OBSFLAT1 layout: magic, string table
// and its CRC32C, then the records, each with its CRC32C — no pin, no index.
func v1Flat(l *obs.FlatLog) []byte {
	le := binary.LittleEndian
	b := []byte("OBSFLAT1")
	b = le.AppendUint32(b, uint32(len(l.Strings)))
	for _, s := range l.Strings[1:] {
		b = le.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	b = le.AppendUint32(b, obs.Checksum(b[8:]))
	b = le.AppendUint32(b, uint32(len(l.Records)))
	for _, f := range l.Records {
		start := len(b)
		for _, w := range []uint64{
			f.Seq,
			uint64(f.Kind) | uint64(f.Tmpl)<<32 | uint64(f.Flags)<<40,
			uint64(f.Track) | uint64(f.Name)<<32,
			uint64(f.Start), uint64(f.End), f.Arg,
		} {
			b = le.AppendUint64(b, w)
		}
		b = le.AppendUint32(b, obs.Checksum(b[start:]))
	}
	return b
}

// toV1Layout rewrites a spill's sidecars into the retired two-file layout:
// an OBSFLAT1 .flat and a JSON .idx.json per segment.
func toV1Layout(t *testing.T, dir string, man *obs.Manifest) {
	t.Helper()
	for _, seg := range man.Segments {
		path := filepath.Join(dir, obs.FlatSegmentName(seg.File))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := obs.DecodeFlat(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, v1Flat(fl), 0o666); err != nil {
			t.Fatal(err)
		}
		idx := fl.Index()
		doc := fmt.Sprintf(`{"obsSegIndex":1,"file":%q,"lines":%d,"bytes":%d,"segCrc32c":%d,"events":%d,"samples":%d,"firstCycle":%d,"lastCycle":%d}`,
			seg.File, seg.Lines, seg.Bytes, seg.CRC32C, idx.Events, idx.Samples, idx.FirstCycle, idx.LastCycle)
		if err := os.WriteFile(strings.TrimSuffix(path, ".flat")+".idx.json", []byte(doc), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetiredSidecarLayoutHeals opens spill directories written with the
// retired sidecar layout. Without migration code, the OBSFLAT1 .flat files
// read as stale and the .idx.json files as commit debris: scrub heals the
// directory to exactly what a fresh spill holds, and the query and spill
// diff answer byte-identically with or without the scrub.
func TestRetiredSidecarLayoutHeals(t *testing.T) {
	fresh, man := sidecarFixture(t)
	wantQ, wantA := spillAnswers(t, fresh)
	if q, a := truthAnswers(t, fresh); q != wantQ || a != wantA {
		t.Fatal("fresh spill's sidecar answers differ from its NDJSON truth")
	}

	copyV1 := func() string {
		dir := t.TempDir()
		ents, err := os.ReadDir(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(fresh, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		toV1Layout(t, dir, man)
		return dir
	}

	scrubbed := copyV1()
	rep, err := scrub.Scan(scrubbed)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[scrub.Kind]int{}
	for _, d := range rep.Damage {
		kinds[d.Kind]++
	}
	if n := len(man.Segments); kinds[scrub.KindSidecarStale] != n || kinds[scrub.KindTornRename] != n || len(rep.NeedsReexec) != 0 {
		t.Fatalf("scan of the retired layout = %v (re-execute %v), want %d stale sidecars and %d debris files",
			kinds, rep.NeedsReexec, n, n)
	}
	res, err := scrub.RepairDerived(scrubbed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Healthy {
		t.Fatalf("retired layout did not scrub healthy: %+v", res.Remaining)
	}
	assertSameFiles(t, fresh, scrubbed)
	if q, a := spillAnswers(t, scrubbed); q != wantQ || a != wantA {
		t.Error("answers changed after scrubbing the retired layout")
	}

	if q, a := spillAnswers(t, copyV1()); q != wantQ || a != wantA {
		t.Error("answers from the unscrubbed retired layout differ")
	}
}

// assertSameFiles requires two directories to hold the same files with the
// same bytes.
func assertSameFiles(t *testing.T, want, got string) {
	t.Helper()
	read := func(dir string) map[string]string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(data)
		}
		return out
	}
	w, g := read(want), read(got)
	for name := range w {
		if _, ok := g[name]; !ok {
			t.Errorf("%s missing", name)
		} else if g[name] != w[name] {
			t.Errorf("%s differs", name)
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			t.Errorf("unexpected %s", name)
		}
	}
}
