package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oclfpga/internal/experiments"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
	"oclfpga/internal/workload"
)

// goldenFile pins the SHA-256 of every file of four durable spills — two
// oclprof CLI runs, the simbench-4096 spill at the shipped rotation
// defaults, and a simbench spill driven by a seeded random RunFor slice
// schedule — and of each segment's NDJSON rendering, listed as the
// seg-NNNNNN.ndjson that segment would be as a stream. A change to how
// records reach the sink (batching, ordering, rotation) must leave every
// container, manifest and rendering byte-identical. The renderings' hashes
// are the NDJSON segment files' of the spill format before containers, so
// they also pin that the container holds exactly the records those did.
const goldenFile = "testdata/spill-golden.sha256"

func TestSpillGoldenBytes(t *testing.T) {
	root := t.TempDir()
	cli := map[string][]string{
		"chanstall-ckpt":  {"-workload", "chanstall", "-seg-lines", "64", "-checkpoint-every", "512"},
		"matmul-stallmon": {"-workload", "matmul", "-stallmon"},
	}
	for name, args := range cli {
		args = append([]string{"-log=false", "-spill-dir", filepath.Join(root, name)}, args...)
		if _, stderr, code := runBin(t, args...); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr)
		}
	}
	if _, err := experiments.SpillSimBench(4096, filepath.Join(root, "simbench-4096"), 1000, 1<<16, 0); err != nil {
		t.Fatal(err)
	}
	spillSliced(t, filepath.Join(root, "simbench-sliced"))

	got := hashTree(t, root, renderSegments(t, root))
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v; computed hashes:\n%s", err, got)
	}
	if got != string(want) {
		t.Fatalf("spill bytes differ from %s\ngot:\n%s\nwant:\n%s", goldenFile, got, want)
	}
}

// spillSliced spills a simbench run driven through RunFor slices whose
// lengths come from a fixed-seed generator, then finalizes it the way
// RunSpec.Execute does.
func spillSliced(t *testing.T, dir string) {
	t.Helper()
	spec := workload.RunSpec{Workload: "simbench", N: 1024, SampleEvery: 100, CheckpointEvery: 512}
	cfg := spec.SegmentConfig(dir)
	cfg.MaxLines = 64
	seg, err := obs.NewSegmentSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Build(spec.Observe(seg))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(28, 1))
	for {
		err := r.M.RunFor(1 + rng.Int64N(3000))
		if err == nil {
			break
		}
		var de *sim.DeadlockError
		if !errors.As(err, &de) || !de.Timeout() {
			t.Fatal(err)
		}
	}
	if err := r.PostRun(); err != nil {
		t.Fatal(err)
	}
	r.M.Observer()
	if err := r.M.ObserveErr(); err != nil {
		t.Fatal(err)
	}
}

// renderSegments renders every segment of each spill under root as the
// NDJSON stream it holds: an NDJSONSink fed that segment's records,
// finalized only for a complete spill's last segment. It returns
// "<spill>/seg-NNNNNN.ndjson  <sha256>" lines.
func renderSegments(t *testing.T, root string) []string {
	t.Helper()
	spills, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, sp := range spills {
		log, err := obs.LoadSegments(filepath.Join(root, sp.Name()))
		if err != nil {
			t.Fatal(err)
		}
		man, rest := log.Manifest, log.Lines
		for i, seg := range man.Segments {
			var buf bytes.Buffer
			sink := obs.NewNDJSONSink(&buf, man.Design, man.SampleEvery)
			(&obs.SegmentLog{Lines: rest[:seg.Lines]}).Feed(sink)
			rest = rest[seg.Lines:]
			if man.Complete && i == len(man.Segments)-1 {
				if err := sink.Finalize(man.EndCycle); err != nil {
					t.Fatal(err)
				}
			} else if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			name := strings.TrimSuffix(seg.File, ".flat") + ".ndjson"
			lines = append(lines, fmt.Sprintf("%s/%s  %s", sp.Name(), name, hex.EncodeToString(sum[:])))
		}
	}
	return lines
}

// hashTree lists "<path relative to root>  <sha256>" for every regular file
// under root and every extra line, sorted by path.
func hashTree(t *testing.T, root string, extra []string) string {
	t.Helper()
	lines := extra
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		sum := sha256.Sum256(b)
		lines = append(lines, fmt.Sprintf("%s  %s", filepath.ToSlash(rel), hex.EncodeToString(sum[:])))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}
