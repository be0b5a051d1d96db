package scrub_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"oclfpga/internal/obs"
	"oclfpga/internal/obs/scrub"
)

func fileTime(ts int64) time.Time { return time.Unix(ts, 0) }

// feed drives the canonical deterministic workload into a recorder — the same
// sequence twice is byte-identical, which is what repair-by-re-execution and
// the chaos matrix lean on.
func feed(rec *obs.Recorder) {
	rec.Instant(obs.KindLaunch, "unit:k", "launch", 0, "")
	rec.OpenWindow("run:k", obs.Event{Kind: obs.KindUnitRun, Track: "unit:k", Name: "run", Start: 1})
	rec.Add(obs.Event{Kind: obs.KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 5, End: 24, Detail: "unit=k"})
	rec.AddSample(obs.Sample{Cycle: 100, Channels: []obs.ChannelSample{{Name: "pipe", Len: 3}}})
	rec.FFJump(30, 70)
	rec.Span(obs.KindLineFetch, "lsu:k/tbl#0", "burst", 80, 99)
	rec.CloseWindow("run:k", 120)
	rec.Finalize(125)
}

func cfg(dir string) obs.SegmentConfig {
	return obs.SegmentConfig{Dir: dir, Design: "d", SampleEvery: 50, MaxLines: 2}
}

// spill lands the canonical workload as a sealed segmented spill in dir.
func spill(t *testing.T, dir string) {
	t.Helper()
	sink, err := obs.NewSegmentSink(cfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	feed(obs.NewRecorder("d", obs.Config{SampleEvery: 50, Sink: sink}))
	if _, err := obs.LoadSegments(dir); err != nil {
		t.Fatal(err)
	}
}

// rebuild is the re-execution hook Repair hands damaged runs to: it replays
// the canonical workload into the repair sink.
func rebuild(man *obs.Manifest, sink obs.Sink) error {
	feed(obs.NewRecorder(man.Design, obs.Config{SampleEvery: man.SampleEvery, Sink: sink}))
	return nil
}

// rebuildWrong regenerates a different run — the shape of a workload whose
// inputs changed since the spill was recorded.
func rebuildWrong(man *obs.Manifest, sink obs.Sink) error {
	rec := obs.NewRecorder(man.Design, obs.Config{SampleEvery: man.SampleEvery, Sink: sink})
	rec.Instant(obs.KindLaunch, "unit:imposter", "launch", 0, "")
	rec.Span(obs.KindUnitRun, "unit:imposter", "run", 1, 120)
	rec.Finalize(125)
	return nil
}

func assertDirsIdentical(t *testing.T, clean, dir string) {
	t.Helper()
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
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs from the clean run after repair", e.Name())
		}
	}
}

func hasKind(ds []scrub.Damage, k scrub.Kind) bool {
	for _, d := range ds {
		if d.Kind == k {
			return true
		}
	}
	return false
}

func hasFile(ds []scrub.Damage, file string) bool {
	for _, d := range ds {
		if d.File == file {
			return true
		}
	}
	return false
}

// TestScrubChaosMatrixAtRest injects every at-rest damage shape into a sealed
// spill and requires Scan to classify it precisely and Repair to restore the
// directory byte-identically to the clean run.
func TestScrubChaosMatrixAtRest(t *testing.T) {
	clean := t.TempDir()
	spill(t, clean)
	man, err := obs.LoadManifest(clean)
	if err != nil {
		t.Fatal(err)
	}
	seg0 := man.Segments[0].File

	cases := []struct {
		name   string
		inject func(t *testing.T, dir string)
		kind   scrub.Kind
	}{
		{"bit-flip", func(t *testing.T, dir string) {
			if err := obs.FlipByte(filepath.Join(dir, seg0), 25); err != nil {
				t.Fatal(err)
			}
		}, scrub.KindBitRot},
		{"truncated-segment", func(t *testing.T, dir string) {
			st, _ := os.Stat(filepath.Join(dir, seg0))
			if err := os.Truncate(filepath.Join(dir, seg0), st.Size()-11); err != nil {
				t.Fatal(err)
			}
		}, scrub.KindTruncated},
		{"missing-segment", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, seg0)); err != nil {
				t.Fatal(err)
			}
		}, scrub.KindMissing},
		{"grown-segment", func(t *testing.T, dir string) {
			f, err := os.OpenFile(filepath.Join(dir, seg0), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString("{\"e\":{}}\n")
			f.Close()
		}, scrub.KindStructure},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spill(t, dir)
			tc.inject(t, dir)

			rep, err := scrub.Scan(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Healthy {
				t.Fatal("scan missed the damage")
			}
			if !hasKind(rep.Damage, tc.kind) {
				t.Fatalf("damage = %+v, want kind %s", rep.Damage, tc.kind)
			}
			if len(rep.NeedsReexec) != 1 || rep.NeedsReexec[0] != seg0 {
				t.Fatalf("NeedsReexec = %v", rep.NeedsReexec)
			}

			res, err := scrub.Repair(dir, rebuild)
			if err != nil {
				t.Fatalf("repair: %v (remaining %+v)", err, res.Remaining)
			}
			if !res.Healthy || len(res.Remaining) != 0 {
				t.Fatalf("repair left damage: %+v", res.Remaining)
			}
			assertDirsIdentical(t, clean, dir)
		})
	}
}

// TestScrubDerivedRepairs covers the damage shapes that never need
// re-execution: torn-rename debris heals from the durable record alone — the
// path obscheck -fsck -repair takes without a workload.
func TestScrubDerivedRepairs(t *testing.T) {
	clean := t.TempDir()
	spill(t, clean)
	man, err := obs.LoadManifest(clean)
	if err != nil {
		t.Fatal(err)
	}
	seg0 := man.Segments[0].File

	cases := []struct {
		name   string
		inject func(t *testing.T, dir string)
		kind   scrub.Kind
	}{
		{"torn-rename-tmp", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, "manifest.json.tmp"), []byte("{torn"), 0o666)
		}, scrub.KindTornRename},
		{"orphan-sealed-segment", func(t *testing.T, dir string) {
			data, _ := os.ReadFile(filepath.Join(dir, seg0))
			os.WriteFile(filepath.Join(dir, "seg-000099.flat"), data, 0o666)
		}, scrub.KindTornRename},
		{"stale-part-after-completion", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, "seg-000009.flat.part"), []byte("x"), 0o666)
		}, scrub.KindTornRename},
		{"stray-repair-staging", func(t *testing.T, dir string) {
			data, _ := os.ReadFile(filepath.Join(dir, seg0))
			os.WriteFile(filepath.Join(dir, seg0+".repair"), data, 0o666)
		}, scrub.KindTornRename},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spill(t, dir)
			tc.inject(t, dir)

			rep, err := scrub.Scan(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Healthy || !hasKind(rep.Damage, tc.kind) {
				t.Fatalf("scan = healthy %v, damage %+v, want kind %s", rep.Healthy, rep.Damage, tc.kind)
			}
			if len(rep.NeedsReexec) != 0 {
				t.Fatalf("derived damage demands re-execution: %v", rep.NeedsReexec)
			}

			res, err := scrub.Repair(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Healthy || len(res.Remaining) != 0 || len(res.RemovedOrphans) != 1 {
				t.Fatalf("debris repair: removed %v, left %+v", res.RemovedOrphans, res.Remaining)
			}
			assertDirsIdentical(t, clean, dir)
		})
	}
}

// TestScrubMidRunDamage corrupts a *sealed* segment of a crashed (incomplete)
// spill: repair must restore the sealed prefix, leave the tail to recovery,
// and a subsequent resume must finish the run byte-identically to clean.
func TestScrubMidRunDamage(t *testing.T) {
	clean := t.TempDir()
	spill(t, clean)

	for _, mode := range []struct {
		name string
		op   obs.FaultOp
		mode obs.FaultMode
	}{
		{"enospc-mid-run", obs.FaultWrite, obs.FaultENOSPC},
		{"fsync-at-seal", obs.FaultSync, obs.FaultEIO},
		{"short-write", obs.FaultWrite, obs.FaultShortWrite},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := obs.NewFaultFS(nil)
			ffs.Arm(3, mode.op, mode.mode)
			c := cfg(dir)
			c.FS = ffs
			sink, err := obs.NewSegmentSink(c)
			if err != nil {
				t.Fatal(err)
			}
			feed(obs.NewRecorder("d", obs.Config{SampleEvery: 50, Sink: sink}))
			if ffs.Injected() == 0 {
				t.Fatal("fault never fired")
			}

			// Add at-rest rot on top of the crash debris when a sealed segment
			// exists to rot.
			man, err := obs.LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Segments) > 0 {
				if err := obs.FlipByte(filepath.Join(dir, man.Segments[0].File), 25); err != nil {
					t.Fatal(err)
				}
			}

			res, err := scrub.Repair(dir, rebuild)
			if err != nil {
				t.Fatalf("repair: %v (remaining %+v)", err, res.Remaining)
			}
			if !res.Healthy {
				t.Fatalf("repair left damage: %+v", res.Remaining)
			}

			// Recovery proper: resume the incomplete run to completion.
			log, err := obs.LoadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !log.Manifest.Complete {
				rsink, err := obs.NewResumeSink(cfg(dir), &log.Manifest)
				if err != nil {
					t.Fatal(err)
				}
				feed(obs.NewRecorder("d", obs.Config{SampleEvery: 50, Sink: rsink}))
				if log, err = obs.LoadSegments(dir); err != nil || !log.Manifest.Complete {
					t.Fatalf("resume did not complete the run: %v", err)
				}
			}
			cleanLog, err := obs.LoadSegments(clean)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cleanLog.Lines, log.Lines) {
				t.Fatalf("records differ: clean %d, recovered %d", len(cleanLog.Lines), len(log.Lines))
			}
		})
	}
}

// tornTailSpill leaves an incomplete spill behind: one sealed segment and a
// torn .part of the next, as a crash inside its seal's write leaves it.
func tornTailSpill(t *testing.T, dir string) *obs.Manifest {
	t.Helper()
	sink, err := obs.NewSegmentSink(cfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder("d", obs.Config{SampleEvery: 50, Sink: sink})
	rec.Instant(obs.KindLaunch, "unit:k", "launch", 0, "")
	rec.Add(obs.Event{Kind: obs.KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 5, End: 24})
	rec.Add(obs.Event{Kind: obs.KindChanStall, Track: "chan:pipe", Name: "write-stall", Start: 30, End: 44})
	// No finalize: the run "crashes" while sealing its next segment. Its
	// records never reached disk, so fabricate the torn container the kernel
	// would have landed: the head of a valid one (copied from the sealed
	// segment), cut mid-section.
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) == 0 {
		t.Fatal("fixture drifted: no sealed segment")
	}
	sealed, err := os.ReadFile(filepath.Join(dir, man.Segments[0].File))
	if err != nil {
		t.Fatal(err)
	}
	part := filepath.Join(dir, obs.PartName(man))
	if err := os.WriteFile(part, sealed[:len(sealed)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	return man
}

// TestScrubTornTailIsWarningNotDamage: a crashed run's torn .part tail is
// recovery's job, not the scrubber's: the resume regenerates it unread. It
// must scan healthy, with no finding, and never trigger quarantine.
func TestScrubTornTailIsWarningNotDamage(t *testing.T) {
	dir := t.TempDir()
	man := tornTailSpill(t, dir)
	rep, err := scrub.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Fatalf("crash debris alone marked unhealthy: %+v", rep.Damage)
	}
	if hasFile(rep.Damage, obs.PartName(man)) {
		t.Fatalf("open .part reported as damage: %+v", rep.Damage)
	}
}

// Damage in a sealed segment beside the torn tail is reported alone: the
// open .part stays no finding.
func TestScrubTornTailBesideTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	man := tornTailSpill(t, dir)
	seg := filepath.Join(dir, man.Segments[0].File)
	if err := os.Truncate(seg, man.Segments[0].FileBytes-5); err != nil {
		t.Fatal(err)
	}
	rep, err := scrub.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(rep.Damage, scrub.KindTruncated) {
		t.Fatalf("truncated segment not reported: %+v", rep.Damage)
	}
	if hasFile(rep.Damage, obs.PartName(man)) {
		t.Fatalf("open .part reported as damage beside a truncated segment: %+v", rep.Damage)
	}
}

// TestScrubQuarantineLifecycle: unrepairable damage (a rebuild that diverges)
// leaves the repair refused; the caller quarantines; a later correct rebuild
// repairs and clears the marker.
func TestScrubQuarantineLifecycle(t *testing.T) {
	clean := t.TempDir()
	spill(t, clean)
	dir := t.TempDir()
	spill(t, dir)
	man, _ := obs.LoadManifest(dir)
	if err := obs.FlipByte(filepath.Join(dir, man.Segments[0].File), 25); err != nil {
		t.Fatal(err)
	}

	res, err := scrub.Repair(dir, rebuildWrong)
	if err == nil {
		t.Fatal("divergent rebuild repaired successfully")
	}
	if ce, ok := obs.AsCorrupt(err); !ok || ce.Reason != "repair-divergence" {
		t.Fatalf("want typed repair-divergence verdict, got %v", err)
	}
	_ = res

	rep, _ := scrub.Scan(dir)
	if err := scrub.Quarantine(dir, "repair diverged", rep.Damage, "2026-08-08T00:00:00Z"); err != nil {
		t.Fatal(err)
	}
	q, ok := scrub.Quarantined(dir)
	if !ok || q.Reason == "" || len(q.Damage) == 0 {
		t.Fatalf("quarantine record = %+v, ok %v", q, ok)
	}
	rep, err = scrub.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy || rep.Quarantined == nil {
		t.Fatal("scan ignores the quarantine marker")
	}

	// The right rebuild shows up (fixed deployment): repair heals and lifts
	// the quarantine.
	res, err = scrub.Repair(dir, rebuild)
	if err != nil || !res.Healthy {
		t.Fatalf("repair after quarantine: %v, %+v", err, res)
	}
	if _, ok := scrub.Quarantined(dir); ok {
		t.Fatal("successful repair left the quarantine marker")
	}
	assertDirsIdentical(t, clean, dir)
}

// TestScrubBadManifest: an unreadable manifest is the one damage nothing can
// repair against — scan says so, repair refuses.
func TestScrubBadManifest(t *testing.T) {
	dir := t.TempDir()
	spill(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{nope"), 0o666); err != nil {
		t.Fatal(err)
	}
	rep, err := scrub.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy || !hasKind(rep.Damage, scrub.KindBadManifest) {
		t.Fatalf("scan = %+v", rep)
	}
	if _, err := scrub.Repair(dir, rebuild); err == nil {
		t.Fatal("repair proceeded without a manifest")
	}
}

// TestScrubGC fills a spill root past budget and checks the eviction order:
// quarantined first, then oldest complete; incomplete and kept runs survive.
func TestScrubGC(t *testing.T) {
	root := t.TempDir()
	mk := func(name string) string {
		dir := filepath.Join(root, name)
		spill(t, dir)
		return dir
	}
	oldRun := mk("run-old")
	newRun := mk("run-new")
	quarRun := mk("run-quarantined")
	keptRun := mk("run-kept")
	if err := scrub.Quarantine(quarRun, "test", nil, ""); err != nil {
		t.Fatal(err)
	}
	// Incomplete run: crashed before finalize.
	incDir := filepath.Join(root, "run-incomplete")
	sink, err := obs.NewSegmentSink(cfg(incDir))
	if err != nil {
		t.Fatal(err)
	}
	sink.Event(obs.Event{Kind: obs.KindLaunch, Track: "unit:k", Name: "launch", Start: 0, End: 0, Instant: true})
	// Age the complete runs so mtime ordering is deterministic: old < new.
	old := int64(1000000)
	for i, d := range []string{oldRun, newRun, keptRun} {
		ts := old + int64(i)*1000
		if err := os.Chtimes(filepath.Join(d, "manifest.json"), fileTime(ts), fileTime(ts)); err != nil {
			t.Fatal(err)
		}
	}

	total := scrub.DirBytes(oldRun) + scrub.DirBytes(newRun) + scrub.DirBytes(quarRun) +
		scrub.DirBytes(keptRun) + scrub.DirBytes(incDir)
	// Budget forces evicting roughly two runs.
	budget := total - scrub.DirBytes(quarRun) - scrub.DirBytes(oldRun) + 1
	rep, err := scrub.GC(root, budget, func(dir string) bool { return dir == keptRun })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 2 {
		t.Fatalf("evicted %d, want 2: %+v", rep.Evicted, rep.Entries)
	}
	exists := func(d string) bool { _, err := os.Stat(d); return err == nil }
	if exists(quarRun) {
		t.Fatal("quarantined run survived; it evicts first")
	}
	if exists(oldRun) {
		t.Fatal("oldest complete run survived")
	}
	if !exists(newRun) || !exists(keptRun) || !exists(incDir) {
		t.Fatal("GC evicted a run it must never touch")
	}
	if rep.BytesAfter > budget || rep.OverBudget {
		t.Fatalf("still over budget: %+v", rep)
	}

	// Budget disabled: nothing moves.
	rep, err = scrub.GC(root, 0, nil)
	if err != nil || rep.Evicted != 0 {
		t.Fatalf("disabled GC acted: %+v, %v", rep, err)
	}
}
