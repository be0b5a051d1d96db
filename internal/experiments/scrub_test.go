package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"oclfpga/internal/obs"
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
			// second, a deleted sidecar, and torn-rename debris.
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
			if err := os.Remove(filepath.Join(dir, "seg-000002.flat")); err != nil {
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
