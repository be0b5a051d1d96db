package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"oclfpga/internal/experiments"
	"oclfpga/internal/obs"
)

// TestMain builds obscheck plus the oclprof and oclmon that produce its
// inputs; the tests then run the real validation pipeline end to end:
// artifacts from one binary gated by the other, exit codes asserted on both
// the accept and reject paths.

var (
	obscheckBin string
	oclprofBin  string
	oclmonBin   string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "obscheck-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	obscheckBin = filepath.Join(dir, "obscheck")
	oclprofBin = filepath.Join(dir, "oclprof")
	oclmonBin = filepath.Join(dir, "oclmon")
	for bin, pkg := range map[string]string{obscheckBin: ".", oclprofBin: "../oclprof", oclmonBin: "../oclmon"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func runCmd(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// artifacts produces one full set of observability files via oclprof.
func artifacts(t *testing.T) (tl, metrics, attr, pprof, spill string) {
	t.Helper()
	dir := t.TempDir()
	tl = filepath.Join(dir, "tl.json")
	metrics = filepath.Join(dir, "m.json")
	attr = filepath.Join(dir, "attr.json")
	pprof = filepath.Join(dir, "attr.pb.gz")
	spill = filepath.Join(dir, "spill.ndjson")
	_, stderr, code := runCmd(t, oclprofBin,
		"-workload", "chanstall", "-log=false", "-sample-every", "500",
		"-timeline", tl, "-metrics", metrics, "-attr", attr, "-pprof", pprof, "-spill", spill)
	if code != 0 {
		t.Fatalf("oclprof exit %d\n%s", code, stderr)
	}
	return
}

func TestAcceptsValidArtifacts(t *testing.T) {
	tl, metrics, attr, pprof, spill := artifacts(t)
	stdout, stderr, code := runCmd(t, obscheckBin,
		"-timeline", tl, "-metrics", metrics, "-attr", attr, "-pprof", pprof, "-spill", spill)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, f := range []string{tl, metrics, attr, pprof, spill} {
		if !bytes.Contains([]byte(stdout), []byte(f+": ok")) {
			t.Errorf("no ok line for %s:\n%s", f, stdout)
		}
	}
	// the spill summary must confirm byte-identity against the timeline file
	if !bytes.Contains([]byte(stdout), []byte("byte-identical")) {
		t.Errorf("spill replay not cross-checked against -timeline:\n%s", stdout)
	}
}

func TestQuietSuppressesSummaries(t *testing.T) {
	tl, _, _, _, _ := artifacts(t)
	stdout, _, code := runCmd(t, obscheckBin, "-q", "-timeline", tl)
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q", code, stdout)
	}
}

func TestRejectsCorruptedTimeline(t *testing.T) {
	tl, _, _, _, _ := artifacts(t)
	raw, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	// flip a span's duration: the validators or the byte-stability re-encode
	// must catch it
	bad := bytes.Replace(raw, []byte(`"dur"`), []byte(`"Dur"`), 1)
	if bytes.Equal(bad, raw) {
		t.Fatal("corruption had no effect")
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runCmd(t, obscheckBin, "-timeline", badPath); code == 0 {
		t.Fatal("corrupted timeline accepted")
	}
}

func TestRejectsTruncatedSpill(t *testing.T) {
	_, _, _, _, spill := artifacts(t)
	raw, err := os.ReadFile(spill)
	if err != nil {
		t.Fatal(err)
	}
	trunc := raw[:len(raw)/2]
	badPath := filepath.Join(t.TempDir(), "trunc.ndjson")
	if err := os.WriteFile(badPath, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runCmd(t, obscheckBin, "-spill", badPath); code == 0 {
		t.Fatal("truncated spill accepted")
	}
}

func TestNothingToCheckExitsTwo(t *testing.T) {
	if _, _, code := runCmd(t, obscheckBin); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// spillDir builds a small segmented simbench spill in-process — the manifest
// carries the workload Meta that lets -fsck -repair re-execute it.
func spillDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := experiments.SpillSimBench(64, dir, 256, 4096, 32); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSpillDirPrintsIntegrity(t *testing.T) {
	dir := spillDir(t)
	stdout, stderr, code := runCmd(t, obscheckBin, "-spill-dir", dir)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !bytes.Contains([]byte(stdout), []byte("checksum ok")) ||
		!bytes.Contains([]byte(stdout), []byte(" records (")) {
		t.Fatalf("no per-segment integrity rows:\n%s", stdout)
	}
}

// TestExportMatchesSingleFileSpill runs one workload into a single-file
// NDJSON spill and a segmented spill at once: -export renders the segmented
// spill as exactly the single file's bytes, across segment boundaries.
func TestExportMatchesSingleFileSpill(t *testing.T) {
	for name, args := range map[string][]string{
		"chanstall": {"-workload", "chanstall", "-seg-lines", "64", "-checkpoint-every", "512"},
		"matmul":    {"-workload", "matmul", "-stallmon"},
		"fir":       {"-workload", "fir", "-stallmon", "-trace"},
	} {
		t.Run(name, func(t *testing.T) {
			tmp := t.TempDir()
			one, dir := filepath.Join(tmp, "one.ndjson"), filepath.Join(tmp, "spill")
			args = append([]string{"-log=false", "-spill", one, "-spill-dir", dir}, args...)
			if _, stderr, code := runCmd(t, oclprofBin, args...); code != 0 {
				t.Fatalf("oclprof exit %d\n%s", code, stderr)
			}
			want, err := os.ReadFile(one)
			if err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := runCmd(t, obscheckBin, "-export", dir)
			if code != 0 {
				t.Fatalf("export exit %d\n%s", code, stderr)
			}
			if stdout != string(want) {
				t.Fatalf("export differs from the single-file spill (%d vs %d bytes)", len(stdout), len(want))
			}
		})
	}
}

func TestFsckHealthySpill(t *testing.T) {
	dir := spillDir(t)
	stdout, stderr, code := runCmd(t, obscheckBin, "-fsck", dir)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !bytes.Contains([]byte(stdout), []byte("fsck healthy")) {
		t.Fatalf("no healthy verdict:\n%s", stdout)
	}
}

func TestFsckDetectsDamageAndRepairs(t *testing.T) {
	dir := spillDir(t)
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, man.Segments[0].File)
	clean, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.FlipByte(first, 30); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json.tmp"), []byte("{torn"), 0o666); err != nil {
		t.Fatal(err)
	}

	// Scan-only: damage classified, exit 1, nothing modified.
	stdout, _, code := runCmd(t, obscheckBin, "-fsck", dir)
	if code != 1 {
		t.Fatalf("fsck of damaged dir exited %d\n%s", code, stdout)
	}
	if !bytes.Contains([]byte(stdout), []byte("bit-rot")) ||
		!bytes.Contains([]byte(stdout), []byte("torn-rename")) {
		t.Fatalf("damage not classified:\n%s", stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json.tmp")); err != nil {
		t.Fatal("scan-only fsck modified the directory")
	}

	// Repair: re-executes the workload from manifest Meta, byte-identical.
	report := filepath.Join(t.TempDir(), "fsck.json")
	stdout, stderr, code := runCmd(t, obscheckBin, "-fsck", dir, "-repair", "-fsck-report", report)
	if code != 0 {
		t.Fatalf("repair exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	got, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, got) {
		t.Fatal("repaired segment is not byte-identical to the clean one")
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Healthy bool `json:"healthy"`
		Repair  *struct {
			RemovedOrphans []string `json:"removedOrphans"`
		} `json:"repair"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("fsck report is not JSON: %v\n%s", err, raw)
	}
	if !rep.Healthy || rep.Repair == nil || len(rep.Repair.RemovedOrphans) == 0 {
		t.Fatalf("fsck report does not record the repair: %s", raw)
	}
	if _, _, code := runCmd(t, obscheckBin, "-q", "-fsck", dir); code != 0 {
		t.Fatal("rescan after repair not clean")
	}
}
