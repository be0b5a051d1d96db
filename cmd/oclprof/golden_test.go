package main

import (
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

// goldenFile pins the SHA-256 of every file of four durable spills: two
// oclprof CLI runs, the simbench-4096 spill at the shipped rotation
// defaults, and a simbench spill driven by a seeded random RunFor slice
// schedule. The hashes were recorded once and are never regenerated: a
// change to how records reach the sink (batching, ordering, rotation) must
// leave every segment, sidecar and manifest byte-identical.
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

	got := hashTree(t, root)
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

// hashTree lists "<path relative to root>  <sha256>" for every regular file
// under root, sorted by path.
func hashTree(t *testing.T, root string) string {
	t.Helper()
	var lines []string
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
