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

// A pruned segment's container is read only up to its index: damage in its
// records does not fail a query its index rules out. A query that reads the
// segment checks it whole and refuses the damage with a typed verdict, as the
// unpruned full scan does.
func TestPrunedSegmentRecordsUnread(t *testing.T) {
	dir := t.TempDir()
	buildSpill(t, dir)
	late := Query{From: 1900, To: 1999, HasRange: true} // seg-000001 ends long before
	want, err := ScanAll(dir, late)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-000001.flat")
	damaged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged[len(damaged)-10] ^= 0xff // inside the last record
	if err := os.WriteFile(path, damaged, 0o666); err != nil {
		t.Fatal(err)
	}
	indexed, err := Run(dir, late)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, indexed.Events), mustJSON(t, want.Events); got != want {
		t.Errorf("indexed events != clean full-scan events\nindexed: %s\nfull:    %s", got, want)
	}

	early := Query{From: 0, To: 10, HasRange: true}
	for name, read := range map[string]func(string, Query) (*Result, error){"Run": Run, "ScanAll": ScanAll} {
		q := early
		if name == "ScanAll" {
			q = late
		}
		if _, err := read(dir, q); !isCorrupt(err) {
			t.Errorf("%s over the damaged segment: err = %v, want a typed corruption verdict", name, err)
		}
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, damaged) {
		t.Fatalf("a reader rewrote the damaged segment (err %v)", err)
	}
}

func isCorrupt(err error) bool {
	_, ok := obs.AsCorrupt(err)
	return ok
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
