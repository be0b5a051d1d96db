package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// segCfg returns a tiny-rotation config so even the short feedRecorder
// sequence spans several sealed segments.
func segCfg(dir string) SegmentConfig {
	return SegmentConfig{Dir: dir, Design: "d", SampleEvery: 50, MaxLines: 2, Meta: map[string]string{"n": "8"}}
}

// spillSegments runs the canonical feed through a recorder spilling into dir
// and returns the uninterrupted head recorder for comparison.
func spillSegments(t *testing.T, dir string) *Recorder {
	t.Helper()
	sink, err := NewSegmentSink(segCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder("d", Config{SampleEvery: 50, Sink: sink})
	feedRecorder(rec)
	if err := sink.err(); err != nil {
		t.Fatal(err)
	}
	head := NewRecorder("d", Config{SampleEvery: 50})
	feedRecorder(head)
	return head
}

// assertSameRecord byte-compares serialized timelines and series. The head
// recorder saw feedRecorder's post-finalize drop; a replayed record did not.
func assertSameRecord(t *testing.T, head *Recorder, tl *Timeline, ser *Series) {
	t.Helper()
	want := head.Timeline()
	want.DroppedEvents = 0
	var b1, b2 bytes.Buffer
	if err := WriteTimeline(&b1, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimeline(&b2, tl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("replayed timeline differs:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	b1.Reset()
	b2.Reset()
	if err := WriteSeries(&b1, head.Series()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeries(&b2, ser); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("replayed series differs")
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	head := spillSegments(t, dir)

	log, err := LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Manifest.Complete || log.Manifest.EndCycle != 125 {
		t.Fatalf("manifest = %+v", log.Manifest)
	}
	if len(log.Manifest.Segments) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(log.Manifest.Segments))
	}
	if log.Manifest.Meta["n"] != "8" {
		t.Fatalf("meta lost: %+v", log.Manifest.Meta)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".part") || strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("uncommitted file left behind: %s", e.Name())
		}
	}
	tl, ser, err := log.Replay()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecord(t, head, tl, ser)
}

// crashSpill emulates a process dying mid-run: a prefix of the feed lands in
// dir, nothing is finalized, the open segment's records die with the process,
// and the next segment's .part is left torn — the bytes a SIGKILL inside a
// seal's write would leave behind.
func crashSpill(t *testing.T, dir string) {
	t.Helper()
	sink, err := NewSegmentSink(segCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder("d", Config{SampleEvery: 50, Sink: sink})
	rec.Instant(KindLaunch, "unit:k", "launch", 0, "")
	rec.OpenWindow("run:k", Event{Kind: KindUnitRun, Track: "unit:k", Name: "run", Start: 1})
	rec.Add(Event{Kind: KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 5, End: 24, Detail: "unit=k"})
	rec.AddSample(Sample{Cycle: 100, Channels: []ChannelSample{{Name: "pipe", Len: 3}}})
	rec.FFJump(30, 70)
	rec.Span(KindLineFetch, "lsu:k/tbl#0", "burst", 80, 99)
	if err := sink.err(); err != nil {
		t.Fatal(err)
	}
	if sink.enc == nil || len(sink.man.Segments) == 0 {
		t.Fatalf("want sealed segments and an open one, got %d sealed", len(sink.man.Segments))
	}
	info, buf := sink.enc.finish(PartName(&sink.man), -1, nil)
	if err := os.WriteFile(filepath.Join(dir, info.File), buf[:len(buf)-7], 0o666); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentResumeByteIdentical(t *testing.T) {
	clean := t.TempDir()
	head := spillSegments(t, clean)

	crashed := t.TempDir()
	crashSpill(t, crashed)

	log, err := LoadSegments(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if log.Manifest.Complete {
		t.Fatal("crashed log claims complete")
	}
	if len(log.Lines) == 0 || log.Manifest.LastCycle() == 0 {
		t.Fatalf("no durable prefix recovered: %d lines, last cycle %d", len(log.Lines), log.Manifest.LastCycle())
	}

	// Re-execute the (deterministic) run against the durable prefix.
	sink, err := NewResumeSink(segCfg(crashed), &log.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder("d", Config{SampleEvery: 50, Sink: sink})
	feedRecorder(rec)
	if err := sink.err(); err != nil {
		t.Fatal(err)
	}
	if sink.Verified() != len(log.Lines) {
		t.Fatalf("verified %d of %d durable lines", sink.Verified(), len(log.Lines))
	}

	// The stitched directory must replay byte-identically to the clean run.
	stitched, err := LoadSegments(crashed)
	if err != nil {
		t.Fatal(err)
	}
	tl, ser, err := stitched.Replay()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecord(t, head, tl, ser)

	// And record-for-record identically to the clean spill.
	cleanLog, err := LoadSegments(clean)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cleanLog.Lines, stitched.Lines) {
		t.Fatalf("records differ: clean %d, stitched %d", len(cleanLog.Lines), len(stitched.Lines))
	}
}

// assertDiverged requires err to be the typed verdict of a re-execution that
// did not reproduce the sealed segment file.
func assertDiverged(t *testing.T, err error, file string) {
	t.Helper()
	ce, ok := AsCorrupt(err)
	if !ok || ce.Reason != "repair-divergence" || ce.File != file {
		t.Fatalf("err = %v, want a repair-divergence verdict on %s", err, file)
	}
}

func TestSegmentResumeDivergenceDetected(t *testing.T) {
	dir := t.TempDir()
	crashSpill(t, dir)
	log, err := LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewResumeSink(segCfg(dir), &log.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder("d", Config{SampleEvery: 50, Sink: sink})
	// A different first event: the "re-executed" run is not the same workload.
	rec.Instant(KindLaunch, "unit:k", "launch", 3, "")
	rec.Add(Event{Kind: KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 5, End: 24, Detail: "unit=k"})
	err = rec.Finalize(125)
	assertDiverged(t, err, segmentName(1))
	if !strings.Contains(err.Error(), "(regenerated)") {
		t.Fatalf("divergence not reported as a fingerprint mismatch: %v", err)
	}
}

func TestSegmentResumeShortReplayDetected(t *testing.T) {
	dir := t.TempDir()
	crashSpill(t, dir)
	log, err := LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewResumeSink(segCfg(dir), &log.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder("d", Config{SampleEvery: 50, Sink: sink})
	rec.Instant(KindLaunch, "unit:k", "launch", 0, "") // then the run "ends"
	err = rec.Finalize(1)
	assertDiverged(t, err, segmentName(1))
	if !strings.Contains(err.Error(), "run ended during segment 1") {
		t.Fatalf("short replay not reported as one: %v", err)
	}
}

func TestSegmentResumeRefusesCompleteLog(t *testing.T) {
	dir := t.TempDir()
	spillSegments(t, dir)
	log, err := LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewResumeSink(segCfg(dir), &log.Manifest); err == nil {
		t.Fatal("resumed a complete log")
	}
	if _, _, err := log.Replay(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentLoadRejectsCorruption(t *testing.T) {
	fresh := func(t *testing.T) string {
		dir := t.TempDir()
		spillSegments(t, dir)
		return dir
	}

	t.Run("truncated sealed segment", func(t *testing.T) {
		dir := fresh(t)
		log, err := LoadSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, log.Manifest.Segments[0].File)
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(p, st.Size()-10); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSegments(dir); err == nil {
			t.Fatal("accepted truncated sealed segment")
		}
	})
	t.Run("missing segment file", func(t *testing.T) {
		dir := fresh(t)
		log, _ := LoadSegments(dir)
		if err := os.Remove(filepath.Join(dir, log.Manifest.Segments[0].File)); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSegments(dir); err == nil {
			t.Fatal("accepted missing segment")
		}
	})
	t.Run("bad manifest version", func(t *testing.T) {
		dir := fresh(t)
		p := filepath.Join(dir, manifestName)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw = bytes.Replace(raw, []byte(`"obsSegments": 2`), []byte(`"obsSegments": 9`), 1)
		if err := os.WriteFile(p, raw, 0o666); err != nil {
			t.Fatal(err)
		}
		var ve *SpillVersionError
		if _, err := LoadSegments(dir); !errors.As(err, &ve) || ve.Version != 9 {
			t.Fatalf("err = %v, want a version-9 SpillVersionError", err)
		}
	})
	t.Run("missing manifest", func(t *testing.T) {
		if _, err := LoadSegments(t.TempDir()); err == nil {
			t.Fatal("accepted empty directory")
		}
	})
	t.Run("garbage line in sealed segment", func(t *testing.T) {
		dir := fresh(t)
		log, _ := LoadSegments(dir)
		p := filepath.Join(dir, log.Manifest.Segments[0].File)
		f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("garbage\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := LoadSegments(dir); err == nil {
			t.Fatal("accepted garbage line")
		}
	})
	// With the whole-file CRC32C skipped, each container section's own
	// checksum still refuses a flipped bit, wherever it lands.
	t.Run("flipped bit with file checksums skipped", func(t *testing.T) {
		dir := fresh(t)
		log, _ := LoadSegments(dir)
		seg := log.Manifest.Segments[0]
		raw, err := os.ReadFile(filepath.Join(dir, seg.File))
		if err != nil {
			t.Fatal(err)
		}
		for off := range raw {
			if err := FlipByte(filepath.Join(dir, seg.File), int64(off)); err != nil {
				t.Fatal(err)
			}
			_, err := LoadSegmentsWith(dir, LoadOptions{SkipChecksums: true})
			if _, ok := AsCorrupt(err); !ok {
				t.Fatalf("flip at byte %d of %d: err = %v, want a typed corruption verdict", off, len(raw), err)
			}
			if err := FlipByte(filepath.Join(dir, seg.File), int64(off)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestSegmentRetryFinalize(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewSegmentSink(segCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder("d", Config{SampleEvery: 50, Sink: sink})
	rec.Instant(KindLaunch, "unit:k", "launch", 0, "")
	rec.Span(KindUnitRun, "unit:k", "run", 1, 120)

	// Block the final segment's rename by squatting on its target name with a
	// non-empty directory — the shape of a transient commit failure.
	final := filepath.Join(dir, segmentName(len(sink.man.Segments)+1))
	if err := os.MkdirAll(filepath.Join(final, "x"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finalize(125); err == nil {
		t.Fatal("commit succeeded despite blocked rename")
	}
	if err := sink.RetryFinalize(); err == nil {
		t.Fatal("retry succeeded while rename still blocked")
	}
	if err := os.RemoveAll(final); err != nil {
		t.Fatal(err)
	}
	if err := sink.RetryFinalize(); err != nil {
		t.Fatalf("retry after clearing obstruction: %v", err)
	}
	log, err := LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Manifest.Complete || log.Manifest.EndCycle != 125 {
		t.Fatalf("manifest = %+v", log.Manifest)
	}
	if _, _, err := log.Replay(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRetryFinalizeStreamErrorPermanent(t *testing.T) {
	dir := t.TempDir()
	crashSpill(t, dir)
	log, err := LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewResumeSink(segCfg(dir), &log.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	sink.Event(Event{Kind: KindLaunch, Track: "unit:k", Name: "launch", Start: 9, End: 9, Instant: true})
	if err := sink.Finalize(125); err == nil {
		t.Fatal("divergence not surfaced")
	}
	assertDiverged(t, sink.RetryFinalize(), segmentName(1))
}

func TestIsSegmentFile(t *testing.T) {
	for name, want := range map[string][2]bool{
		"seg-000001.flat":        {false, true},
		"seg-000012.flat.part":   {true, true},
		"seg-1234567.flat":       {false, true},
		"seg-1.flat":             {false, false},
		"seg-000000.flat":        {false, false},
		"seg-00000a.flat":        {false, false},
		"seg-000001.flat.tmp":    {false, false},
		"seg-000001.flat.repair": {false, false},
		"seg-000001.ndjson":      {false, false},
		"manifest.json":          {false, false},
	} {
		part, ok := IsSegmentFile(name)
		if ok != want[1] || (ok && part != want[0]) {
			t.Errorf("IsSegmentFile(%q) = %v, %v; want %v, %v", name, part, ok, want[0], want[1])
		}
	}
	if got := PartName(&Manifest{Segments: make([]SegmentInfo, 2)}); got != "seg-000003.flat.part" {
		t.Fatalf("PartName = %q", got)
	}
}
