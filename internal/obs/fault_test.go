package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// copyDir clones a flat spill directory (the fixtures here have no subdirs).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// assertSameLines compares the durable payload records of two loaded logs.
func assertSameLines(t *testing.T, want, got *SegmentLog) {
	t.Helper()
	if len(want.Lines) != len(got.Lines) {
		t.Fatalf("record counts differ: want %d, got %d", len(want.Lines), len(got.Lines))
	}
	for i := range want.Lines {
		if !reflect.DeepEqual(want.Lines[i], got.Lines[i]) {
			t.Fatalf("record %d differs:\n%+v\nvs\n%+v", i, want.Lines[i], got.Lines[i])
		}
	}
}

// TestSegmentSinkFaultMatrix drives the sink through every state transition
// under injected disk faults: for each mutating-operation kind and each fault
// mode, it arms the fault at every operation index the clean run performs and
// asserts the invariant DESIGN.md §16 promises — a disk fault may fail the
// run, but it must never corrupt the durable record: the directory always
// loads, and a resumed re-execution always completes it byte-identically.
func TestSegmentSinkFaultMatrix(t *testing.T) {
	clean := t.TempDir()
	spillSegments(t, clean)
	cleanLog, err := LoadSegments(clean)
	if err != nil {
		t.Fatal(err)
	}

	ops := []FaultOp{FaultCreate, FaultWrite, FaultSync, FaultRename, FaultWriteFile}
	modes := []struct {
		name string
		mode FaultMode
	}{
		{"enospc", FaultENOSPC},
		{"eio", FaultEIO},
		{"shortwrite", FaultShortWrite},
		{"crash", FaultCrash},
	}
	for _, op := range ops {
		for _, m := range modes {
			t.Run(string(op)+"/"+m.name, func(t *testing.T) {
				// Count the clean run's ops of this kind, then sweep each index.
				probe := NewFaultFS(nil)
				probe.Arm(0, op, m.mode) // disarmed, but counts matching ops
				dir := t.TempDir()
				cfg := segCfg(dir)
				cfg.FS = probe
				sink, err := NewSegmentSink(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rec := NewRecorder("d", Config{SampleEvery: 50, Sink: sink})
				feedRecorder(rec)
				if err := sink.err(); err != nil {
					t.Fatal(err)
				}
				total := probe.Ops()
				if total == 0 {
					t.Fatalf("clean run performed no %q ops; matrix has a hole", op)
				}

				for at := 1; at <= total; at++ {
					ffs := NewFaultFS(nil)
					ffs.Arm(at, op, m.mode)
					dir := t.TempDir()
					cfg := segCfg(dir)
					cfg.FS = ffs
					var finErr error
					sink, err := NewSegmentSink(cfg)
					if err != nil {
						finErr = err
					} else {
						rec := NewRecorder("d", Config{SampleEvery: 50, Sink: sink})
						feedRecorder(rec)
						finErr = sink.err()
					}
					if ffs.Injected() == 0 {
						t.Fatalf("at=%d: fault never fired (%d ops)", at, ffs.Ops())
					}
					if finErr != nil && (m.mode == FaultENOSPC || m.mode == FaultShortWrite) && !IsDiskFull(finErr) {
						t.Fatalf("at=%d: ENOSPC-family fault surfaced without the ENOSPC signal: %v", at, finErr)
					}

					// Recovery happens in a fresh process: plain filesystem.
					log, err := LoadSegmentsWith(dir, LoadOptions{})
					if err != nil {
						if os.IsNotExist(err) {
							// The fault killed the run before the manifest ever
							// landed: nothing was promised, nothing to recover.
							continue
						}
						t.Fatalf("at=%d: durable record does not load after fault: %v", at, err)
					}
					if log.Manifest.Complete {
						if finErr != nil {
							t.Fatalf("at=%d: run failed (%v) yet manifest claims complete", at, finErr)
						}
						assertSameLines(t, cleanLog, log)
						continue
					}
					if finErr == nil {
						t.Fatalf("at=%d: run claims success but manifest is incomplete", at)
					}
					rsink, err := NewResumeSink(segCfg(dir), &log.Manifest)
					if err != nil {
						t.Fatalf("at=%d: resume refused: %v", at, err)
					}
					rrec := NewRecorder("d", Config{SampleEvery: 50, Sink: rsink})
					feedRecorder(rrec)
					if err := rsink.err(); err != nil {
						t.Fatalf("at=%d: resumed run failed: %v", at, err)
					}
					stitched, err := LoadSegments(dir)
					if err != nil {
						t.Fatalf("at=%d: stitched record does not load: %v", at, err)
					}
					if !stitched.Manifest.Complete {
						t.Fatalf("at=%d: stitched manifest incomplete", at)
					}
					assertSameLines(t, cleanLog, stitched)
				}
			})
		}
	}
}

// assertSameDir requires dir to hold exactly clean's files, byte for byte:
// segments and manifest.
func assertSameDir(t *testing.T, clean, dir string) {
	t.Helper()
	want, err := os.ReadDir(clean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d files, want %d: %v vs %v", len(got), len(want), got, want)
	}
	for _, e := range want {
		a, err := os.ReadFile(filepath.Join(clean, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs from the uninterrupted run's", e.Name())
		}
	}
}

// resumeCrashed re-executes the canonical feed into a resume sink over the
// crashed spill in dir, reading nothing but its manifest.
func resumeCrashed(t *testing.T, dir string, cfg SegmentConfig) *SegmentSink {
	t.Helper()
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewResumeSink(cfg, man)
	if err != nil {
		t.Fatalf("resume refused: %v", err)
	}
	feedRecorder(NewRecorder("d", Config{SampleEvery: 50, Sink: sink}))
	if err := sink.err(); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	return sink
}

// TestSegmentSalvageAtEveryByteOffset is the crash sweep: a crashed run's
// unsealed .part is truncated at every possible byte offset, and every single
// truncation must resume to a directory — segments and manifest —
// byte-identical to the uninterrupted run's. The .part is never read, so no
// torn byte can reach the record.
func TestSegmentSalvageAtEveryByteOffset(t *testing.T) {
	clean := t.TempDir()
	spillSegments(t, clean)

	tpl := t.TempDir()
	crashSpill(t, tpl)
	parts, err := filepath.Glob(filepath.Join(tpl, "*.part"))
	if err != nil || len(parts) != 1 {
		t.Fatalf("parts = %v, err = %v", parts, err)
	}
	st, err := os.Stat(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size()
	if size == 0 {
		t.Fatal("crashed run left an empty .part; sweep proves nothing")
	}
	partName := filepath.Base(parts[0])

	for off := int64(0); off <= size; off++ {
		dir := copyDir(t, tpl)
		if err := os.Truncate(filepath.Join(dir, partName), off); err != nil {
			t.Fatal(err)
		}
		resumeCrashed(t, dir, segCfg(dir))
		assertSameDir(t, clean, dir)
	}
}

// TestSegmentSalvageLiesAreDropped plants a fabricated (well-formed but wrong)
// container as the .part: the resumed directory must still be byte-identical
// to the uninterrupted run's, because the regenerated truth is what lands.
func TestSegmentSalvageLiesAreDropped(t *testing.T) {
	clean := t.TempDir()
	spillSegments(t, clean)

	dir := t.TempDir()
	crashSpill(t, dir)
	parts, _ := filepath.Glob(filepath.Join(dir, "*.part"))
	lie := newFlatBuilder()
	lie.addEvent(&Event{Kind: KindLaunch, Track: "unit:ghost", Name: "never-happened", Start: 9, End: 9, Instant: true})
	_, data := lie.finish(filepath.Base(parts[0]), -1, nil)
	if _, err := DecodeFlat(data); err != nil {
		t.Fatalf("the planted lie does not even decode: %v", err)
	}
	if err := os.WriteFile(parts[0], data, 0o666); err != nil {
		t.Fatal(err)
	}

	resumeCrashed(t, dir, segCfg(dir))
	assertSameDir(t, clean, dir)
}

// TestResumeIgnoresRotationFlags crashes a spill written at one rotation
// threshold and resumes it under another. Resume cuts the regenerated stream
// where the manifest says, not where the resuming process's MaxLines would,
// so the sealed prefix must verify and its files stay byte-identical; only
// the segments appended after it follow the new threshold.
func TestResumeIgnoresRotationFlags(t *testing.T) {
	const n, crashAt = 10000, 5000
	stall := func(i int) Event {
		return Event{Kind: KindChanStall, Track: "chan:pipe", Name: "read-stall",
			Start: int64(4 * i), End: int64(4*i + 3), Detail: "unit=k"}
	}
	rotCfg := func(dir string, maxLines int) SegmentConfig {
		c := segCfg(dir)
		c.MaxLines = maxLines
		return c
	}
	clean := t.TempDir()
	sink, err := NewSegmentSink(rotCfg(clean, 4096))
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		sink.Event(stall(i))
	}
	if err := sink.Finalize(4 * n); err != nil {
		t.Fatal(err)
	}
	cleanLog, err := LoadSegments(clean)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ crash, resume int }{{64, 4096}, {4096, 64}} {
		t.Run(fmt.Sprintf("%d-then-%d", tc.crash, tc.resume), func(t *testing.T) {
			dir := t.TempDir()
			crashed, err := NewSegmentSink(rotCfg(dir, tc.crash))
			if err != nil {
				t.Fatal(err)
			}
			for i := range crashAt {
				crashed.Event(stall(i)) // the process dies before Finalize
			}
			man, err := LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Segments) == 0 {
				t.Fatal("crash sealed no segment; nothing to verify")
			}
			sealed := map[string][]byte{}
			sealedLines := 0
			for _, seg := range man.Segments {
				if sealed[seg.File], err = os.ReadFile(filepath.Join(dir, seg.File)); err != nil {
					t.Fatal(err)
				}
				sealedLines += seg.Lines
			}

			resumed, err := NewResumeSink(rotCfg(dir, tc.resume), man)
			if err != nil {
				t.Fatal(err)
			}
			for i := range n {
				resumed.Event(stall(i))
			}
			if err := resumed.Finalize(4 * n); err != nil {
				t.Fatal(err)
			}
			if resumed.Verified() != sealedLines {
				t.Fatalf("verified %d of %d sealed lines", resumed.Verified(), sealedLines)
			}
			for f, want := range sealed {
				got, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("sealed %s changed across the resume", f)
				}
			}
			stitched, err := LoadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range stitched.Manifest.Segments[len(man.Segments):] {
				if seg.Lines > tc.resume {
					t.Fatalf("appended %s holds %d lines, past the resuming MaxLines %d", seg.File, seg.Lines, tc.resume)
				}
			}
			assertSameLines(t, cleanLog, stitched)
		})
	}
}

// TestSegmentBitFlipCaughtByChecksum flips a byte inside a string of the
// container's string table — same length, every count intact — and expects
// the whole-file CRC to refuse it first, as a typed verdict naming file and
// reason, with the section's own checksum behind it.
func TestSegmentBitFlipCaughtByChecksum(t *testing.T) {
	dir := t.TempDir()
	spillSegments(t, dir)
	log, err := LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := log.Manifest.Segments[0]
	p := filepath.Join(dir, seg.File)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a letter inside an interned string: "launch" -> "la5nch".
	i := bytes.Index(data, []byte("launch"))
	if i < 0 {
		t.Fatalf("fixture drifted: no 'launch' in %s", seg.File)
	}
	if err := FlipByte(p, int64(i+2)); err != nil {
		t.Fatal(err)
	}

	_, err = LoadSegments(dir)
	ce, ok := AsCorrupt(err)
	if !ok {
		t.Fatalf("bit flip not surfaced as CorruptSegmentError: %v", err)
	}
	if ce.File != seg.File || ce.Reason != "checksum" {
		t.Fatalf("verdict = %+v", ce)
	}
	// Without the whole-file CRC the string table's checksum still refuses.
	if _, err := LoadSegmentsWith(dir, LoadOptions{SkipChecksums: true}); err == nil ||
		!strings.Contains(err.Error(), "string table checksum") {
		t.Fatalf("SkipChecksums load = %v, want the string table's checksum verdict", err)
	}
	// And the other readers agree with the loader.
	c := CheckSegment(dir, &log.Manifest, 0)
	if c.ChecksumState != "bad" || c.Err == nil {
		t.Fatalf("CheckSegment = %+v", c)
	}
	if _, err := LoadSegFlat(dir, seg, nil); err == nil {
		t.Fatal("LoadSegFlat accepted flipped segment")
	}
}

// TestUnfingerprintedManifestRefused drops the fingerprints from a manifest:
// every segment entry must carry one, so the manifest is refused rather than
// loaded unverified.
func TestUnfingerprintedManifestRefused(t *testing.T) {
	dir := t.TempDir()
	spillSegments(t, dir)
	buf, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	buf = bytes.ReplaceAll(buf, []byte(`"fileBytes"`), []byte(`"xFileBytes"`))
	buf = bytes.ReplaceAll(buf, []byte(`"crc32c"`), []byte(`"xCrc32c"`))
	if err := os.WriteFile(filepath.Join(dir, manifestName), buf, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSegments(dir); err == nil || !strings.Contains(err.Error(), "no fingerprint") {
		t.Fatalf("unfingerprinted manifest: err = %v", err)
	}
}

// TestRepairSinkByteIdentical damages two segments of a sealed spill, repairs
// them by re-executing the workload through a RepairSink, and requires every
// repaired file to come back byte-for-byte identical to the clean original.
func TestRepairSinkByteIdentical(t *testing.T) {
	clean := t.TempDir()
	spillSegments(t, clean)
	man, err := LoadManifest(clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(man.Segments))
	}

	dir := copyDir(t, clean)
	first := man.Segments[0].File
	last := man.Segments[len(man.Segments)-1].File
	if err := FlipByte(filepath.Join(dir, first), 20); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(filepath.Join(dir, last))
	if err := os.Truncate(filepath.Join(dir, last), st.Size()-9); err != nil {
		t.Fatal(err)
	}

	rs, err := NewRepairSink(dir, man, []string{first, last}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder("d", Config{SampleEvery: 50, Sink: rs})
	feedRecorder(rec)
	done, err := rs.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(man.Segments) {
		t.Fatalf("repaired %d of %d segments", len(done), len(man.Segments))
	}
	for _, rep := range done {
		if !rep.Verified {
			t.Fatalf("segment %s not verified: %+v", rep.File, rep)
		}
		if rep.Damaged != (rep.File == first || rep.File == last) {
			t.Fatalf("damage flag wrong: %+v", rep)
		}
		if rep.Damaged && !rep.Written {
			t.Fatalf("damaged segment %s not written", rep.File)
		}
	}

	ents, err := os.ReadDir(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		want, err := os.ReadFile(filepath.Join(clean, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s missing after repair: %v", e.Name(), err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs from clean original after repair", e.Name())
		}
	}
	if _, err := LoadSegments(dir); err != nil {
		t.Fatalf("repaired spill does not load: %v", err)
	}
}

// TestRepairSinkDivergenceAborts re-executes a *different* workload into the
// repair sink: the fingerprint verification must refuse the whole repair and
// leave the damaged bytes untouched on disk.
func TestRepairSinkDivergenceAborts(t *testing.T) {
	dir := t.TempDir()
	spillSegments(t, dir)
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := man.Segments[0].File
	if err := FlipByte(filepath.Join(dir, victim), 20); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, victim))
	if err != nil {
		t.Fatal(err)
	}

	rs, err := NewRepairSink(dir, man, []string{victim}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder("d", Config{SampleEvery: 50, Sink: rs})
	rec.Instant(KindLaunch, "unit:imposter", "launch", 0, "")
	rec.Span(KindUnitRun, "unit:imposter", "run", 1, 120)
	rec.Finalize(125)
	_, err = rs.Commit()
	if err == nil || !strings.Contains(err.Error(), "repair-divergence") {
		t.Fatalf("divergent repair not refused: %v", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, victim))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused repair still modified the damaged segment")
	}
	if _, err := os.Stat(filepath.Join(dir, victim+".repair")); err == nil {
		t.Fatal("refused repair left staging debris")
	}
}

// TestRepairSwapSyncFault fails the fsync of a repair's staged replacement:
// the swap is committed like a sealed segment, so Commit must return the
// error and leave the damaged segment in place.
func TestRepairSwapSyncFault(t *testing.T) {
	dir := t.TempDir()
	spillSegments(t, dir)
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := man.Segments[0].File
	if err := FlipByte(filepath.Join(dir, victim), 20); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, victim))
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(nil)
	ffs.Arm(1, FaultSync, FaultEIO)
	rs, err := NewRepairSink(dir, man, []string{victim}, ffs)
	if err != nil {
		t.Fatal(err)
	}
	feedRecorder(NewRecorder("d", Config{SampleEvery: 50, Sink: rs}))
	if _, err := rs.Commit(); err == nil {
		t.Fatal("repair committed through a failed fsync")
	}
	if ffs.Injected() == 0 {
		t.Fatal("the repair swap never synced")
	}
	after, err := os.ReadFile(filepath.Join(dir, victim))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a failed swap replaced the damaged segment")
	}
}

// TestRepairSinkShortRunAborts ends the re-execution early: Commit must
// refuse — a partial regeneration proves nothing.
func TestRepairSinkShortRunAborts(t *testing.T) {
	dir := t.TempDir()
	spillSegments(t, dir)
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRepairSink(dir, man, []string{man.Segments[0].File}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Commit(); err == nil {
		t.Fatal("Commit before Finalize accepted")
	}
	if err := rs.Finalize(man.EndCycle); err == nil {
		t.Fatal("empty regeneration finalized cleanly")
	}
	if _, err := rs.Commit(); err == nil {
		t.Fatal("empty regeneration committed")
	}
}

// TestRepairSinkRejectsUnknownSegment guards the damage list against names
// the manifest never attested.
func TestRepairSinkRejectsUnknownSegment(t *testing.T) {
	dir := t.TempDir()
	spillSegments(t, dir)
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRepairSink(dir, man, []string{"seg-000099.flat"}, nil); err == nil {
		t.Fatal("accepted a damage list outside the manifest")
	}
}

// TestFlatCodecChecksumDetectsFlip flips one byte of a record's packed data
// in the binary artifact — structurally intact, wrong contents — and expects
// the per-record CRC to refuse it.
func TestFlatCodecChecksumDetectsFlip(t *testing.T) {
	rec := NewRecorder("d", Config{})
	rec.Span(KindChanStall, "chan:pipe", "read-stall", 5, 40)
	rec.Instant(KindLaunch, "unit:k", "go", 0, "")
	data := rec.FlatLog().AppendFlat(nil)

	// Flip a byte in the last record's cycle field (well inside the packed
	// words, far from the magic and string table).
	data[len(data)-10] ^= 0x01
	if _, err := DecodeFlat(data); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped record accepted: %v", err)
	}
}
