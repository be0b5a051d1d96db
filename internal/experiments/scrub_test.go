package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"oclfpga/internal/obs"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/obs/scrub"
	"oclfpga/internal/workload"
)

// TestScrubRepairSimBenchPinned is the end-to-end durability pin: a real
// simulated workload spills a checkpointed segmented record, the chaos
// injector damages it several ways at once, and scrub.Repair — driving the
// full simulator re-execution via workload.Rebuild — must restore every file
// byte-identically to a clean run's. Pinned with fast-forward on and off,
// because the regenerated stream must be identical in both regimes for
// repair (and crash recovery) to be trustworthy at all.
func TestScrubRepairSimBenchPinned(t *testing.T) {
	const (
		n           = 256
		sampleEvery = 128
		ckptEvery   = 2048
		segLines    = 64
	)
	for _, tc := range []struct {
		name      string
		disableFF bool
	}{
		{"ff-on", false},
		{"ff-off", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := t.TempDir()
			if _, err := SpillSimBenchFF(n, clean, sampleEvery, ckptEvery, segLines, tc.disableFF); err != nil {
				t.Fatal(err)
			}
			man, err := obs.LoadManifest(clean)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Segments) < 3 {
				t.Fatalf("fixture too small: %d segments", len(man.Segments))
			}

			dir := t.TempDir()
			ents, err := os.ReadDir(clean)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				data, err := os.ReadFile(filepath.Join(clean, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o666); err != nil {
					t.Fatal(err)
				}
			}

			// The full damage cocktail: bit rot in one segment, a truncated
			// second, and torn-rename debris.
			first := man.Segments[0].File
			mid := man.Segments[len(man.Segments)/2].File
			if err := obs.FlipByte(filepath.Join(dir, first), 40); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(filepath.Join(dir, mid))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(filepath.Join(dir, mid), st.Size()-13); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "manifest.json.tmp"), []byte("{torn"), 0o666); err != nil {
				t.Fatal(err)
			}

			rep, err := scrub.Scan(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Healthy || len(rep.NeedsReexec) != 2 {
				t.Fatalf("scan = healthy %v, needsReexec %v", rep.Healthy, rep.NeedsReexec)
			}

			res, err := scrub.Repair(dir, workload.Rebuild)
			if err != nil {
				t.Fatalf("repair: %v (remaining %+v)", err, res.Remaining)
			}
			if !res.Healthy || len(res.Remaining) != 0 {
				t.Fatalf("repair left damage: %+v", res.Remaining)
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
					t.Fatalf("%s differs from the clean run after repair (%s)", e.Name(), tc.name)
				}
			}

			// The repaired spill answers like the clean one.
			log, err := obs.LoadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := log.Replay(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScrubRepairRefusesForeignWorkload: a manifest whose Meta names a
// workload outside the registry must be refused with the typed
// unknown-workload error, not repaired into garbage.
func TestScrubRepairRefusesForeignWorkload(t *testing.T) {
	dir := t.TempDir()
	if _, err := SpillSimBench(64, dir, 128, 2048, 32); err != nil {
		t.Fatal(err)
	}
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Meta["workload"] = "something-else"
	var uw *workload.UnknownWorkloadError
	if err := workload.Rebuild(man, nil); !errors.As(err, &uw) || uw.Name != "something-else" {
		t.Fatalf("rebuild of a foreign workload: %v, want *UnknownWorkloadError", err)
	}
}

// TestSwappedSidecarServesOwnEvents leaves a well-formed container of the
// same length in one segment's place — a copy of another segment's with the
// same record count, what an interrupted write leaves behind in a reused
// spill directory, and the segment's own container with one record changed
// and every section re-sealed, so only the body differs. Only the manifest's
// fingerprints tell either from the segment: the query engine and the spill
// diff must refuse the segment rather than answer from the other events,
// and once scrub has regenerated it by re-execution they answer from its
// own events again.
func TestSwappedSidecarServesOwnEvents(t *testing.T) {
	plants := map[string]func(t *testing.T, dir string, man *obs.Manifest) (obs.SegmentInfo, []byte){
		"another segment's container": func(t *testing.T, dir string, man *obs.Manifest) (obs.SegmentInfo, []byte) {
			byShape := map[[2]int64]obs.SegmentInfo{}
			for _, seg := range man.Segments {
				shape := [2]int64{int64(seg.Lines), seg.FileBytes}
				if other, ok := byShape[shape]; ok {
					data, err := os.ReadFile(filepath.Join(dir, other.File))
					if err != nil {
						t.Fatal(err)
					}
					return seg, data
				}
				byShape[shape] = seg
			}
			t.Fatalf("no two segments share a record count and length: %+v", man.Segments)
			return obs.SegmentInfo{}, nil
		},
		"its own container re-sealed": func(t *testing.T, dir string, man *obs.Manifest) (obs.SegmentInfo, []byte) {
			seg := man.Segments[1]
			data, err := os.ReadFile(filepath.Join(dir, seg.File))
			if err != nil {
				t.Fatal(err)
			}
			fl, err := obs.DecodeFlat(data)
			if err != nil {
				t.Fatal(err)
			}
			// Shorten one record that spans neither end of the segment's
			// cycle range, so the index — and the head — stay the same.
			first, last := fl.Records[0].Start, fl.Records[0].End
			for _, r := range fl.Records {
				first, last = min(first, r.Start), max(last, r.End)
			}
			for i, r := range fl.Records {
				if r.Start > first && r.End < last && r.End > r.Start {
					fl.Records[i].End = r.Start
					out := fl.AppendFlat(nil)
					if len(out) != len(data) || bytes.Equal(out, data) {
						t.Fatalf("re-sealed container: %d bytes (was %d), changed %v", len(out), len(data), !bytes.Equal(out, data))
					}
					orig, err := obs.DecodeFlat(data)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fl.Index(), orig.Index()) {
						t.Fatal("re-sealed container's index differs")
					}
					return seg, out
				}
			}
			t.Fatalf("%s has no record inside its cycle range", seg.File)
			return obs.SegmentInfo{}, nil
		},
	}
	for name, plant := range plants {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := SpillSimBench(16, dir, 64, 256, 24); err != nil {
				t.Fatal(err)
			}
			man, err := obs.LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			answers := func() (string, string, error) {
				res, err := query.Run(dir, query.Query{From: 0, To: 1 << 40, HasRange: true})
				if err != nil {
					return "", "", err
				}
				side, err := diff.AttributeSpill(dir)
				if err != nil {
					return "", "", err
				}
				q, err := json.Marshal(res.Events)
				if err != nil {
					t.Fatal(err)
				}
				a, err := json.Marshal(side.Attr)
				if err != nil {
					t.Fatal(err)
				}
				return string(q), string(a), nil
			}
			wantQ, wantA, err := answers()
			if err != nil {
				t.Fatal(err)
			}

			seg, data := plant(t, dir, man)
			if err := os.WriteFile(filepath.Join(dir, seg.File), data, 0o666); err != nil {
				t.Fatal(err)
			}
			// The whole run, and a point at the segment's last cycle, which a
			// foreign index would prune the segment from.
			for _, q := range []query.Query{
				{From: 0, To: 1 << 40, HasRange: true},
				{From: seg.LastCycle, To: seg.LastCycle, HasRange: true},
			} {
				if _, err := query.Run(dir, q); err == nil {
					t.Errorf("query %+v served %s from a container not its own", q, seg.File)
				} else if ce, ok := obs.AsCorrupt(err); !ok || ce.File != seg.File {
					t.Errorf("query %+v: err = %v, want a *CorruptSegmentError naming %s", q, err, seg.File)
				}
			}
			if _, err := diff.AttributeSpill(dir); err == nil {
				t.Errorf("spill diff attributed %s from a container not its own", seg.File)
			} else if ce, ok := obs.AsCorrupt(err); !ok || ce.File != seg.File {
				t.Errorf("spill diff: err = %v, want a *CorruptSegmentError naming %s", err, seg.File)
			}

			res, err := scrub.Repair(dir, workload.Rebuild)
			if err != nil {
				t.Fatalf("repair: %v (remaining %+v)", err, res.Remaining)
			}
			if !res.Healthy {
				t.Fatalf("repair left damage: %+v", res.Remaining)
			}
			gotQ, gotA, err := answers()
			if err != nil {
				t.Fatal(err)
			}
			if gotQ != wantQ {
				t.Errorf("query after repair differs from the clean spill's")
			}
			if gotA != wantA {
				t.Errorf("spill diff after repair differs from the clean spill's")
			}
		})
	}
}
