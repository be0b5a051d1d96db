package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oclfpga/internal/experiments"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/obs/scrub"
)

// TestRebuildMatrix is the cross-tool contract of the shared run spec: every
// spill writer — oclprof on each workload (traced, instrumented, waveform
// and fault-injected runs included), the oclmon server, and the simbench
// fixture — records a spec that both oclprof -scrub and obscheck -fsck
// -repair re-execute into a byte-identical segment, and that oclprof
// -at-cycle rewinds through a hash-verified recorded checkpoint.
func TestRebuildMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("records and re-executes a dozen spills")
	}
	root := t.TempDir()
	type writer struct {
		name  string
		write func(dir string)
	}
	var writers []writer
	for _, args := range [][]string{
		{"-workload", "matvec-st"},
		{"-workload", "matvec-st", "-vcd", os.DevNull},
		{"-workload", "matvec-nd", "-order"},
		{"-workload", "matmul", "-stallmon", "-trace"},
		{"-workload", "matmul", "-watch", "-trace"},
		{"-workload", "chase", "-timestamps", "hdl"},
		{"-workload", "vecadd", "-device", "a10"},
		{"-workload", "fir", "-stallmon", "-trace"},
		{"-workload", "chanstall", "-chandepthopt"},
		{"-workload", "chanstall", "-inject", "freeze-read:pipe@500+300"},
	} {
		args := args
		writers = append(writers, writer{"oclprof " + strings.Join(args, " "), func(dir string) {
			args := append(args, "-log=false", "-sample-every", "500", "-checkpoint-every", "512",
				"-seg-lines", "64", "-spill-dir", dir)
			if _, stderr, code := runCmd(t, oclprofBin, args...); code != 0 {
				t.Fatalf("oclprof %v exited %d\n%s", args, code, stderr)
			}
		}})
	}
	writers = append(writers,
		writer{"oclmon", func(dir string) { oclmonSpill(t, dir) }},
		writer{"simbench", func(dir string) {
			if _, err := experiments.SpillSimBench(256, dir, 128, 2048, 64); err != nil {
				t.Fatal(err)
			}
		}},
	)
	for i, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			dir := filepath.Join(root, fmt.Sprint(i))
			w.write(dir)
			checkRewind(t, dir)
			man, err := obs.LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Segments) < 2 {
				t.Fatalf("fixture has %d segments; need a sealed one to rot", len(man.Segments))
			}
			seg := man.Segments[0].File
			clean, err := os.ReadFile(filepath.Join(dir, seg))
			if err != nil {
				t.Fatal(err)
			}
			for _, tool := range []struct {
				name string
				bin  string
				args func(d string) []string
			}{
				{"oclprof -scrub", oclprofBin, func(d string) []string { return []string{"-scrub", "-spill-dir", d} }},
				{"obscheck -fsck -repair", obscheckBin, func(d string) []string { return []string{"-q", "-fsck", d, "-repair"} }},
			} {
				d := filepath.Join(root, fmt.Sprintf("%d-%s", i, strings.Fields(tool.name)[0]))
				copyDir(t, dir, d)
				if err := obs.FlipByte(filepath.Join(d, seg), 33); err != nil {
					t.Fatal(err)
				}
				if stdout, stderr, code := runCmd(t, tool.bin, tool.args(d)...); code != 0 {
					t.Fatalf("%s exited %d\nstdout: %s\nstderr: %s", tool.name, code, stdout, stderr)
				}
				if got, err := os.ReadFile(filepath.Join(d, seg)); err != nil || !bytes.Equal(got, clean) {
					t.Fatalf("%s: repaired %s is not byte-identical (%v)", tool.name, seg, err)
				}
			}
		})
	}
}

// checkRewind rewinds the spill's recorded spec one cycle past a middle
// checkpoint: the checkpoint's design and state hashes must verify.
func checkRewind(t *testing.T, dir string) {
	t.Helper()
	cks, err := query.Checkpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("spill recorded no checkpoints")
	}
	ck := cks[len(cks)/2]
	stdout, stderr, code := runCmd(t, oclprofBin, "-at-cycle", fmt.Sprint(ck.Cycle+1), "-spill-dir", dir)
	want := fmt.Sprintf("checkpoint at cycle %d verified", ck.Cycle)
	if code != 0 || !strings.Contains(stderr, want) || !strings.Contains(stdout, fmt.Sprintf(`"cycle": %d`, ck.Cycle+1)) {
		t.Fatalf("at-cycle rewind exited %d, want %q\nstdout: %.300s\nstderr: %s", code, want, stdout, stderr)
	}
}

// oclmonSpill hosts one supervised, checkpointed run on a real oclmon server
// and returns once its spill under dir is complete.
func oclmonSpill(t *testing.T, dir string) {
	t.Helper()
	root := filepath.Join(t.TempDir(), "spill")
	cmd := exec.Command(oclmonBin, "-addr", "localhost:0", "-runs", "1", "-n", "1024", "-sample-every", "500",
		"-checkpoint-every", "4096", "-seg-lines", "64", "-spill-dir", root)
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	run := filepath.Join(root, "run1")
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if man, err := obs.LoadManifest(run); err == nil && man.Complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oclmon run did not complete\n%s", logs.String())
		}
	}
	copyDir(t, run, dir)
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o777); err != nil {
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
}

// TestRefusedSpecQuarantined: a rotted spill whose manifest records a
// version-1 supervised spec cannot be re-executed byte-identically, so both
// repair tools refuse it with the typed error, leave the segment as it is,
// and quarantine the directory.
func TestRefusedSpecQuarantined(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	if _, stderr, code := runCmd(t, oclprofBin, "-workload", "chanstall", "-log=false",
		"-seg-lines", "64", "-spill-dir", dir); code != 0 {
		t.Fatalf("oclprof exited %d\n%s", code, stderr)
	}
	manPath := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	meta := m["meta"].(map[string]any)
	delete(meta, "spec")
	meta["slice"], meta["cycle-budget"] = "250000", "50000000"
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, man.Segments[0].File)
	if err := obs.FlipByte(seg, 33); err != nil {
		t.Fatal(err)
	}
	rotted, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []struct {
		name string
		bin  string
		args []string
	}{
		{"oclprof -scrub", oclprofBin, []string{"-scrub", "-spill-dir", dir}},
		{"obscheck -fsck -repair", obscheckBin, []string{"-q", "-fsck", dir, "-repair"}},
	} {
		stdout, stderr, code := runCmd(t, tool.bin, tool.args...)
		if code != 1 || !strings.Contains(stdout+stderr, "version 1 supervised spec") {
			t.Fatalf("%s exited %d, want 1 with the typed refusal\nstdout: %s\nstderr: %s", tool.name, code, stdout, stderr)
		}
		if q, ok := scrub.Quarantined(dir); !ok || !strings.Contains(q.Reason, "slice") {
			t.Fatalf("%s: quarantine marker %+v, want the slice refusal", tool.name, q)
		}
		if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, rotted) {
			t.Fatalf("%s rewrote the refused spill's segment (%v)", tool.name, err)
		}
		if err := scrub.Unquarantine(dir); err != nil {
			t.Fatal(err)
		}
	}
}
