package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"oclfpga/internal/obs"
)

// buildSpill writes a deterministic multi-segment spill: 200 events across
// small segments, with chan-stall events clustered so narrow queries prune.
func buildSpill(t *testing.T, dir string) {
	t.Helper()
	sink, err := obs.NewSegmentSink(obs.SegmentConfig{Dir: dir, Design: "qtest", SampleEvery: 50, MaxLines: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e := obs.Event{
			Kind:  "exec",
			Track: fmt.Sprintf("unit:u%d", i%4),
			Name:  fmt.Sprintf("op%d", i%7),
			Start: int64(i * 10),
			End:   int64(i*10 + 5),
		}
		if i%25 == 24 {
			e.Kind = "chan-stall"
			e.Track = "chan:pipe"
			e.Detail = fmt.Sprintf("stall %d", i)
		}
		if i%50 == 0 {
			ck := obs.Checkpoint{Cycle: int64(i * 10), DesignHash: 0xabcd, Seed: 7, StateHash: uint64(i)}
			e = obs.Event{
				Kind: obs.KindCheckpoint, Track: obs.CheckpointTrack, Name: obs.CheckpointName,
				Start: ck.Cycle, End: ck.Cycle, Instant: true,
				Detail: obs.FormatCheckpointDetail(ck),
			}
		}
		sink.Event(e)
		if i%10 == 0 {
			sink.Sample(obs.Sample{Cycle: int64(i * 10)})
		}
	}
	if err := sink.Finalize(2000); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunMatchesScanAll(t *testing.T) {
	dir := t.TempDir()
	buildSpill(t, dir)
	for _, qs := range []string{
		"kind=chan-stall",
		"track=unit:u1",
		"name=op3",
		"cycles=[900,1100]",
		"kind=exec track=unit:u2 cycles=[0,500]",
		"kind=checkpoint",
		"kind=nosuch",
		"track=unit:u1 name=op6 kind=exec cycles=[0,1999]",
	} {
		q, err := ParseQuery(qs)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		indexed, err := Run(dir, q)
		if err != nil {
			t.Fatalf("%s: Run: %v", qs, err)
		}
		full, err := ScanAll(dir, q)
		if err != nil {
			t.Fatalf("%s: ScanAll: %v", qs, err)
		}
		if got, want := mustJSON(t, indexed.Events), mustJSON(t, full.Events); got != want {
			t.Errorf("%s: indexed events != full-scan events\nindexed: %s\nfull:    %s", qs, got, want)
		}
		if indexed.SegmentsRead > full.SegmentsRead {
			t.Errorf("%s: indexed read %d segments, full scan %d", qs, indexed.SegmentsRead, full.SegmentsRead)
		}
	}
}

func TestIndexPrunes(t *testing.T) {
	dir := t.TempDir()
	buildSpill(t, dir)
	res, err := Run(dir, Query{Kind: "nosuch-kind"})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsRead != 0 {
		t.Errorf("absent kind read %d segments, want 0", res.SegmentsRead)
	}
	res, err = Run(dir, Query{From: 1900, To: 1999, HasRange: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsRead >= res.SegmentsTotal {
		t.Errorf("narrow range read %d of %d segments, want pruning", res.SegmentsRead, res.SegmentsTotal)
	}
	if len(res.Events) == 0 {
		t.Error("narrow range found no events")
	}
}

// A pruned segment's sidecar is read only up to its index: damage in its
// records neither fails the query nor triggers a rebuild. A query that reads
// the segment still checks it whole, and rebuilds it from the NDJSON truth.
func TestPrunedSegmentRecordsUnread(t *testing.T) {
	dir := t.TempDir()
	buildSpill(t, dir)
	path := filepath.Join(dir, obs.FlatSegmentName("seg-000001.ndjson"))
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), clean...)
	damaged[len(damaged)-10] ^= 0xff // inside the last record
	if err := os.WriteFile(path, damaged, 0o666); err != nil {
		t.Fatal(err)
	}
	late := Query{From: 1900, To: 1999, HasRange: true} // seg-000001 ends long before
	indexed, err := Run(dir, late)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ScanAll(dir, late)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, indexed.Events), mustJSON(t, full.Events); got != want {
		t.Errorf("indexed events != full-scan events\nindexed: %s\nfull:    %s", got, want)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, damaged) {
		t.Fatalf("pruned segment's sidecar was rewritten (err %v)", err)
	}

	early := Query{From: 0, To: 10, HasRange: true}
	if _, err := Run(dir, early); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, clean) {
		t.Fatalf("read segment's damaged sidecar was not rebuilt (err %v)", err)
	}
}

// Seal-time sidecars must be byte-identical to obscheck -index rebuilds:
// both walk the same events through the same builder.
func TestRebuiltSidecarsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	buildSpill(t, dir)
	sealed := map[string][]byte{}
	for _, pat := range []string{"*.flat"} {
		files, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no %s sidecars written at seal time", pat)
		}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sealed[filepath.Base(f)] = raw
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	rebuilt, err := obs.EnsureIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != len(man.Segments) {
		t.Errorf("EnsureIndex rebuilt %d, want %d", rebuilt, len(man.Segments))
	}
	for name, want := range sealed {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: not rebuilt: %v", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: rebuilt sidecar differs from seal-time sidecar", name)
		}
	}
	if n, err := obs.EnsureIndex(dir); err != nil || n != 0 {
		t.Errorf("second EnsureIndex = (%d, %v), want (0, nil)", n, err)
	}
}

// A corrupt flat sidecar must be rebuilt from the NDJSON truth, not serve
// wrong answers: the query matches the full scan, and the rebuilt sidecars
// are the seal-time bytes again.
func TestCorruptFlatFallsBack(t *testing.T) {
	dir := t.TempDir()
	buildSpill(t, dir)
	flats, err := filepath.Glob(filepath.Join(dir, "*.flat"))
	if err != nil || len(flats) == 0 {
		t.Fatalf("glob: %v (%d files)", err, len(flats))
	}
	sealed := map[string][]byte{}
	for _, f := range flats {
		if sealed[f], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, []byte("garbage"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Kind: "exec"}
	indexed, err := Run(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ScanAll(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, indexed.Events) != mustJSON(t, full.Events) {
		t.Error("corrupt flat artifacts changed query results")
	}
	for f, want := range sealed {
		if got, err := os.ReadFile(f); err != nil || string(got) != string(want) {
			t.Errorf("%s: corrupt flat was not rebuilt to its seal-time bytes (%v)", filepath.Base(f), err)
		}
	}
}

func TestCheckpoints(t *testing.T) {
	dir := t.TempDir()
	buildSpill(t, dir)
	cks, err := Checkpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 4 {
		t.Fatalf("got %d checkpoints, want 4", len(cks))
	}
	for i, ck := range cks {
		if want := int64(i * 500); ck.Cycle != want {
			t.Errorf("checkpoint %d at cycle %d, want %d", i, ck.Cycle, want)
		}
		if ck.DesignHash != 0xabcd || ck.Seed != 7 {
			t.Errorf("checkpoint %d parsed wrong: %+v", i, ck)
		}
	}
}

// Queries must work on an incomplete (crashed mid-run) spill's sealed prefix.
func TestQueryIncompleteSpill(t *testing.T) {
	dir := t.TempDir()
	sink, err := obs.NewSegmentSink(obs.SegmentConfig{Dir: dir, Design: "qtest", MaxLines: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sink.Event(obs.Event{Kind: "exec", Track: "t", Name: "n", Start: int64(i), End: int64(i)})
	}
	// no Finalize: two sealed segments + one open .part
	res, err := Run(dir, Query{Kind: "exec"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 8 {
		t.Errorf("incomplete spill: got %d sealed events, want 8", len(res.Events))
	}
}
