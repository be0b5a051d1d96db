package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"oclfpga/internal/obs"
)

// The CLI contract tests run the real binary: TestMain builds it once into a
// temp dir and each test asserts on exit code, stdout, and stderr — the
// -json promise (stdout is exactly one JSON document, narration on stderr)
// is what scripts and CI pipelines depend on.

var oclprofBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "oclprof-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	oclprofBin = filepath.Join(dir, "oclprof")
	if out, err := exec.Command("go", "build", "-o", oclprofBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBin executes the built binary and returns stdout, stderr, and exit code.
func runBin(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(oclprofBin, args...)
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

// oneJSONDocument asserts the string is exactly one JSON value and returns it.
func oneJSONDocument(t *testing.T, s string) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader([]byte(s)))
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, s)
	}
	if dec.More() {
		t.Fatalf("stdout holds more than one JSON document:\n%s", s)
	}
	return v
}

func TestJSONReportContract(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "tl.json")
	stdout, stderr, code := runBin(t,
		"-workload", "chanstall", "-json", "-timeline", tl, "-sample-every", "500")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	v := oneJSONDocument(t, stdout)
	if v["workload"] != "chanstall" {
		t.Fatalf("workload = %v", v["workload"])
	}
	if c, ok := v["cycles"].(float64); !ok || c <= 0 {
		t.Fatalf("cycles = %v", v["cycles"])
	}
	if _, ok := v["units"].([]any); !ok {
		t.Fatalf("units missing: %v", v["units"])
	}
	// narration (compiler log, fit line, file notes) must land on stderr
	if !bytes.Contains([]byte(stderr), []byte("timeline: "+tl)) {
		t.Fatalf("narration missing from stderr:\n%s", stderr)
	}
	if _, err := os.Stat(tl); err != nil {
		t.Fatal(err)
	}
}

func TestJSONStallSummary(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := runBin(t,
		"-workload", "chanstall", "-json", "-log=false",
		"-attr", filepath.Join(dir, "attr.json"),
		"-pprof", filepath.Join(dir, "attr.pb.gz"),
		"-spill", filepath.Join(dir, "spill.ndjson"))
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	v := oneJSONDocument(t, stdout)
	stall, ok := v["stall"].(map[string]any)
	if !ok {
		t.Fatalf("stall summary missing: %v", v)
	}
	if c, ok := stall["criticalCycles"].(float64); !ok || c <= 0 {
		t.Fatalf("criticalCycles = %v", stall["criticalCycles"])
	}
	for _, f := range []string{"attr.json", "attr.pb.gz", "spill.ndjson"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

func TestUnknownWorkloadExitCode(t *testing.T) {
	_, stderr, code := runBin(t, "-workload", "nope")
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr)
	}
}

// TestDiffFlagHygiene pins the -diff/-diff-spill flag contract: the diff
// modes are mutually exclusive with every other mode and with run outputs,
// take exactly two positional arguments, and reject negative thresholds —
// all flag misuse, all exit 2.
func TestDiffFlagHygiene(t *testing.T) {
	for name, args := range map[string][]string{
		"diff+at-cycle":   {"-diff", "-at-cycle", "5", "a.json", "b.json"},
		"diff+break":      {"-diff", "-break", "chan:pipe", "a.json", "b.json"},
		"diff+query":      {"-diff", "-query", "kind=chan-stall", "a.json", "b.json"},
		"diff+diff-spill": {"-diff", "-diff-spill", "a", "b"},
		"spill+at-cycle":  {"-diff-spill", "-at-cycle", "5", "a", "b"},
		"diff+spill-dir":  {"-diff", "-spill-dir", "d", "a.json", "b.json"},
		"diff+timeline":   {"-diff", "-timeline", "t.json", "a.json", "b.json"},
		"diff+attr":       {"-diff", "-attr", "x.json", "a.json", "b.json"},
		"one-arg":         {"-diff", "a.json"},
		"three-args":      {"-diff", "a.json", "b.json", "c.json"},
		"no-args":         {"-diff-spill"},
		"negative-rel":    {"-diff", "-diff-rel", "-1", "a.json", "b.json"},
		"negative-abs":    {"-diff", "-diff-abs", "-5", "a.json", "b.json"},
	} {
		t.Run(name, func(t *testing.T) {
			stdout, stderr, code := runBin(t, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstdout: %s\nstderr: %s", code, stdout, stderr)
			}
		})
	}
}

// TestDiffSelfRoundTrip is the end-to-end CLI path: two attributions of the
// same deterministic workload, diffed by the binary, must come out neutral
// with exit 0 and a single canonical JSON report on stdout.
func TestDiffSelfRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	for _, path := range []string{a, b} {
		if _, stderr, code := runBin(t, "-workload", "chanstall", "-log=false", "-attr", path); code != 0 {
			t.Fatalf("attr run exit %d\nstderr: %s", code, stderr)
		}
	}
	stdout, stderr, code := runBin(t, "-diff", a, b)
	if code != 0 {
		t.Fatalf("self-diff exit %d, want 0\nstderr: %s", code, stderr)
	}
	v := oneJSONDocument(t, stdout)
	if v["verdict"] != "neutral" {
		t.Fatalf("self-diff verdict = %v\n%s", v["verdict"], stdout)
	}
	if _, ok := v["rows"].([]any); !ok {
		t.Fatalf("rows missing: %s", stdout)
	}
	if !bytes.Contains([]byte(stderr), []byte("diff: neutral")) {
		t.Fatalf("narration missing from stderr:\n%s", stderr)
	}
}

// TestScrubRepairsSpillDir: the self-healing loop end to end through the CLI.
// A run spills crash-safe segments with the run parameters in the manifest
// Meta; the test corrupts one segment and plants commit debris; -scrub must
// re-execute the recorded run, restore the segment byte-identically, and
// leave a healthy directory.
func TestScrubRepairsSpillDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	_, stderr, code := runBin(t,
		"-workload", "chanstall", "-log=false", "-sample-every", "200",
		"-checkpoint-every", "1000", "-seg-lines", "64", "-spill-dir", dir)
	if code != 0 {
		t.Fatalf("spill run exited %d\n%s", code, stderr)
	}
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Meta["workload"] != "chanstall" || man.Meta["device"] != "s5" {
		t.Fatalf("manifest Meta does not capture the run parameters: %v", man.Meta)
	}
	first := filepath.Join(dir, man.Segments[0].File)
	clean, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.FlipByte(first, 25); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json.tmp"), []byte("{torn"), 0o666); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, code := runBin(t, "-scrub", "-spill-dir", dir)
	if code != 0 {
		t.Fatalf("-scrub exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	v := oneJSONDocument(t, stdout)
	if v["healthy"] != true {
		t.Fatalf("scrub verdict not healthy:\n%s", stdout)
	}
	got, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, got) {
		t.Fatal("repaired segment is not byte-identical to the original")
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json.tmp")); !os.IsNotExist(err) {
		t.Fatal("commit debris survived the scrub")
	}
	// A healthy directory scrubs clean without re-execution.
	stdout, _, code = runBin(t, "-scrub", "-spill-dir", dir)
	if code != 0 || oneJSONDocument(t, stdout)["repair"] != nil {
		t.Fatalf("rescan of healed dir: exit %d\n%s", code, stdout)
	}
}

func TestScrubFlagHygiene(t *testing.T) {
	if _, _, code := runBin(t, "-scrub"); code != 2 {
		t.Fatalf("-scrub without -spill-dir exited %d, want 2", code)
	}
	if _, _, code := runBin(t, "-scrub", "-spill-dir", "x", "-query", "track=t"); code != 2 {
		t.Fatalf("-scrub with -query exited %d, want 2", code)
	}
	if _, _, code := runBin(t, "-scrub", "-spill-dir", "x", "-timeline", "t.json"); code != 2 {
		t.Fatalf("-scrub with -timeline exited %d, want 2", code)
	}
}

// TestScrubRepairsTracedSpills: the -trace readout (Stop + ReadTrace on every
// monitor bank) runs machine cycles after the kernel finishes, so it is part
// of the recorded stream. -scrub must re-execute it, or the regenerated
// stream ends early and the repair diverges.
func TestScrubRepairsTracedSpills(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "matmul", "-stallmon", "-trace"},
		{"-workload", "matmul", "-watch", "-trace"},
	} {
		t.Run(args[2][1:], func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "spill")
			if _, stderr, code := runBin(t, append(args, "-log=false", "-seg-lines", "64", "-spill-dir", dir)...); code != 0 {
				t.Fatalf("spill run exited %d\n%s", code, stderr)
			}
			man, err := obs.LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if man.Meta["trace"] != "1" {
				t.Fatalf("manifest Meta does not record the trace phase: %v", man.Meta)
			}
			seg := filepath.Join(dir, man.Segments[0].File)
			clean, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.FlipByte(seg, 33); err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := runBin(t, "-scrub", "-spill-dir", dir)
			if code != 0 || oneJSONDocument(t, stdout)["healthy"] != true {
				t.Fatalf("-scrub exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
			}
			if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, clean) {
				t.Fatalf("repaired segment is not byte-identical to the original (%v)", err)
			}
		})
	}
}

// TestBreakMatchesAtCycleInHostPhase: -break re-executes the recorded host
// phases, so a cycle break inside matmul's -trace readout (which runs after
// the kernel finishes at cycle 22430) halts in the readout with exactly the
// state -at-cycle dumps for that cycle, not in idle autorun fabric.
func TestBreakMatchesAtCycleInHostPhase(t *testing.T) {
	args := []string{"-workload", "matmul", "-stallmon", "-trace", "-log=false"}
	brk, stderr, code := runBin(t, append(args, "-break", "cycle=23000")...)
	if code != 0 {
		t.Fatalf("-break exited %d\n%s", code, stderr)
	}
	at, stderr, code := runBin(t, append(args, "-at-cycle", "23000")...)
	if code != 0 {
		t.Fatalf("-at-cycle exited %d\n%s", code, stderr)
	}
	var rep struct {
		Hit   *struct{ Cycle int64 } `json:"hit"`
		State json.RawMessage        `json:"state"`
	}
	if err := json.Unmarshal([]byte(brk), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Hit == nil || rep.Hit.Cycle != 23000 {
		t.Fatalf("break hit = %+v, want cycle 23000", rep.Hit)
	}
	var got, want any
	if err := json.Unmarshal(rep.State, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(at), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("break state differs from the -at-cycle dump\nbreak: %.400s\nat-cycle: %.400s", rep.State, at)
	}
	if want.(map[string]any)["activeUnits"] == 0.0 {
		t.Fatal("cycle 23000 is idle fabric; the readout no longer covers it and the test is vacuous")
	}
}
