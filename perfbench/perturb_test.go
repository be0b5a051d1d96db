package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
	"oclfpga/internal/supervise"
)

// TestTracingDoesNotPerturb writes the spill-write op's spill twice: through
// the benchmark's timing Sink and VFS wrappers with a ledger attached, and
// straight into a SegmentSink on the real filesystem. The two directories
// must hold byte-identical files (manifest with its segment CRCs, segments,
// sidecars) and the machines must agree on every simulated count.
func TestTracingDoesNotPerturb(t *testing.T) {
	w := &spillWrite{e: &env{root: t.TempDir(), seed: 7}}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.close()

	l := newLedger()
	traced := &swRun{fs: newCountingFS(l), dir: filepath.Join(w.e.root, "traced")}
	t0 := l.startOp()
	out, err := w.runSpilled(l, traced)
	l.stopOp(t0)
	if err != nil || out.State != supervise.StateCompleted {
		t.Fatalf("traced run: %v %v", out.State, err)
	}

	plainDir := filepath.Join(w.e.root, "plain")
	seg, err := obs.NewSegmentSink(obs.SegmentConfig{
		Dir: plainDir, Design: "pcstall", SampleEvery: sampleEvery,
		Meta: map[string]string{"workload": "pcstall", "n": strconv.Itoa(swItems)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var plain *sim.Machine
	done := make(chan supervise.Outcome, 1)
	err = w.sup.Submit(supervise.Spec{
		ID: "plain", Workload: "pcstall",
		Start: func() (*sim.Machine, error) {
			m, _, err := newPCMachine(w.d, w.src, pcMem, &obs.Config{
				SampleEvery: sampleEvery, CheckpointEvery: checkpointEvy, Sink: seg,
			})
			plain = m
			return m, err
		},
		Done: func(_ *sim.Machine, out supervise.Outcome) { done <- out },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := <-done; out.State != supervise.StateCompleted {
		t.Fatalf("plain run: %v %v", out.State, out.Err)
	}

	if got, want := traced.m.Cycle(), plain.Cycle(); got != want {
		t.Errorf("cycles: traced %d, plain %d", got, want)
	}
	if got, want := traced.m.FastForwardStats(), plain.FastForwardStats(); got != want {
		t.Errorf("fast-forward: traced %+v, plain %+v", got, want)
	}
	tr, pr := traced.m.Observer(), plain.Observer()
	if tr.EventCount() != pr.EventCount() || tr.SampleCount() != pr.SampleCount() {
		t.Errorf("records: traced %d events/%d samples, plain %d/%d",
			tr.EventCount(), tr.SampleCount(), pr.EventCount(), pr.SampleCount())
	}
	if traced.fs.n.Fsyncs == 0 || l.spans == nil {
		t.Fatalf("wrappers saw no work: %+v", traced.fs.n)
	}

	a, b := readDir(t, traced.dir), readDir(t, plainDir)
	if len(a) != len(b) {
		t.Fatalf("traced spill has %d files, plain %d", len(a), len(b))
	}
	for name, data := range b {
		if !bytes.Equal(a[name], data) {
			t.Errorf("%s differs between the traced and the plain spill", name)
		}
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestLedgerSelfTime checks the ledger's accounting: a span's self time is
// its duration minus its children, folded calls sum into one span per
// (op, layer, parent), and the op root keeps only what no layer claimed.
func TestLedgerSelfTime(t *testing.T) {
	l := newLedger()
	l.op = 3
	t0 := l.startOp()
	l.begin("outer")
	for i := 0; i < 3; i++ {
		f := l.fold("leaf")
		time.Sleep(time.Millisecond)
		l.unfold(f)
	}
	l.end()
	l.stopOp(t0)

	self, wall := l.opSelf(3)
	if len(l.spans) != 3 || l.spans[2].name != "leaf" || l.spans[2].count != 3 {
		t.Fatalf("want op, outer and one folded leaf span of 3 calls; got %+v", l.spans)
	}
	if self["leaf"] < 3 {
		t.Errorf("leaf self %.3f ms, want at least 3", self["leaf"])
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	if d := sum - wall; d > 1e-6 || d < -1e-6 {
		t.Errorf("self times %v sum to %.6f ms, op wall %.6f ms", self, sum, wall)
	}
}
