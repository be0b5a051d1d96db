package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"oclfpga/internal/experiments"
	"oclfpga/internal/hls"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
	"oclfpga/internal/supervise"
)

// spill-write: the durable profiling run an oclmon worker executes, minus
// HTTP. Each op opens a fresh SegmentSink at the shipped rotation defaults,
// submits the run to a one-slot supervisor, and waits for Done; the machine
// is observed on oclprof's default 1000-cycle sample grid plus a
// 65,536-cycle checkpoint grid.
const (
	swItems       = 4096
	sampleEvery   = 1000
	checkpointEvy = 1 << 16
)

type spillWrite struct {
	e    *env
	d    *hls.Design
	sup  *supervise.Supervisor
	src  []int64
	want []int64
	seq  int
}

func newSpillWrite(e *env) bench { return &spillWrite{e: e} }

func (w *spillWrite) setup() error {
	rng := w.e.newRNG()
	t0 := time.Now()
	d, err := experiments.CompileSimBench(swItems)
	if err != nil {
		return err
	}
	w.e.compiled(t0)
	if w.sup != nil {
		w.sup.Close()
	}
	w.d = d
	w.sup = supervise.New(supervise.Config{Slots: 1})
	w.src = pcInput(rng, swItems)
	w.want = pcExpected(w.src)
	return nil
}

func (w *spillWrite) close() {
	if w.sup != nil {
		w.sup.Close()
	}
}

// swRun is one supervised, spilled run's handles.
type swRun struct {
	m   *sim.Machine
	dst []int64
	fs  *countingFS
	dir string
}

func (w *spillWrite) op(l *ledger) (opOut, error) {
	w.seq++
	dir := filepath.Join(w.e.root, fmt.Sprintf("op-%06d", w.seq))
	defer os.RemoveAll(dir)
	r := &swRun{fs: newCountingFS(l), dir: dir}

	c := w.e.startOp(l)
	out, err := w.runSpilled(l, r)
	st := w.e.stopOp(l, c)
	if err != nil {
		return opOut{}, err
	}
	if out.State != supervise.StateCompleted {
		return opOut{}, fmt.Errorf("run %s: %v", out.State, out.Err)
	}
	return w.check(l, r, st)
}

// runSpilled is the op's timed part: open the spill, submit, wait for Done.
func (w *spillWrite) runSpilled(l *ledger, r *swRun) (supervise.Outcome, error) {
	var seg *obs.SegmentSink
	var err error
	l.time("sink.open", func() {
		seg, err = obs.NewSegmentSink(obs.SegmentConfig{
			Dir: r.dir, Design: "pcstall", SampleEvery: sampleEvery, FS: r.fs,
			Meta: map[string]string{"workload": "pcstall", "n": strconv.Itoa(swItems)},
		})
	})
	if err != nil {
		return supervise.Outcome{}, err
	}
	var sink obs.Sink = seg
	if l != nil {
		sink = &timingSink{inner: seg, l: l, before: l.end, after: func() { l.begin("supervise.finish_lag") }}
	}
	done := make(chan supervise.Outcome, 1)
	l.begin("supervise.admit_wait")
	err = w.sup.Submit(supervise.Spec{
		ID: filepath.Base(r.dir), Workload: "pcstall",
		Start: func() (*sim.Machine, error) {
			l.end()
			l.begin("sim.build")
			m, dst, err := newPCMachine(w.d, w.src, pcMem, &obs.Config{
				SampleEvery: sampleEvery, CheckpointEvery: checkpointEvy, Sink: sink,
			})
			l.end()
			if err != nil {
				return nil, err
			}
			r.m, r.dst = m, dst.Data
			l.begin("sim.run")
			return m, nil
		},
		Done: func(_ *sim.Machine, out supervise.Outcome) {
			l.unwind()
			done <- out
		},
	})
	if err != nil {
		l.unwind()
		return supervise.Outcome{}, err
	}
	return <-done, nil
}

// check runs after the op's clock stops: the consumer's output against the
// Go reference, and a complete manifest covering every recorded line.
func (w *spillWrite) check(l *ledger, r *swRun, st opStats) (opOut, error) {
	if err := checkOutput(r.dst, w.want); err != nil {
		return opOut{}, err
	}
	man, err := obs.LoadManifest(r.dir)
	if err != nil {
		return opOut{}, err
	}
	rec := r.m.Observer()
	lines := 0
	for _, s := range man.Segments {
		lines += s.Lines
	}
	if !man.Complete || man.EndCycle != r.m.Cycle() {
		return opOut{}, fmt.Errorf("manifest incomplete: complete=%v endCycle=%d, machine at %d", man.Complete, man.EndCycle, r.m.Cycle())
	}
	if want := rec.EventCount() + rec.FFJumpCount() + rec.SampleCount(); lines != want {
		return opOut{}, fmt.Errorf("manifest lists %d lines, recorder appended %d", lines, want)
	}
	bytes, err := dirBytes(r.dir)
	if err != nil {
		return opOut{}, err
	}
	ff := r.m.FastForwardStats()
	out := opOut{opStats: st, counts: map[string]int64{
		"sim.cycles": r.m.Cycle(), "sim.ff_jumps": ff.Jumps,
		"obs.events": int64(rec.EventCount()), "obs.samples": int64(rec.SampleCount()),
		"vfs.fsyncs": r.fs.n.Fsyncs, "spill_bytes": bytes,
	}}
	if l != nil {
		out.layers, err = w.layers(l, r, bytes, lines)
	}
	return out, err
}

func (w *spillWrite) layers(l *ledger, r *swRun, bytes int64, lines int) (map[string]float64, error) {
	self, _ := l.opSelf(l.op)
	ff := r.m.FastForwardStats()
	cycles := r.m.Cycle()
	stepped := cycles - ff.Skipped
	rec := r.m.Observer()
	sinkMs := self["sink.event"] + self["sink.sample"] + self["sink.finalize"]
	unobserved, observed, err := w.recordProbe()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"sim.cycles":               float64(cycles),
		"sim.stepped_cycles":       float64(stepped),
		"sim.ff_jumps":             float64(ff.Jumps),
		"sim.ns_per_stepped_cycle": self["sim.run"] * 1e6 / float64(stepped),
		"sim.simcycles_per_s":      float64(cycles) / (self["sim.run"] / 1e3),
		"obs.record_ms":            observed - unobserved,
		"obs.events":               float64(rec.EventCount()),
		"obs.samples":              float64(rec.SampleCount()),
		"sink.ns_per_line":         sinkMs * 1e6 / float64(lines),
		"spill_bytes_per_mcycle":   float64(bytes) / (float64(cycles) / 1e6),
		"vfs.fsyncs":               float64(r.fs.n.Fsyncs),
		"vfs.renames":              float64(r.fs.n.Renames),
		"vfs.files_created":        float64(r.fs.n.FilesCreated),
		"vfs.writefiles":           float64(r.fs.n.WriteFiles),
		"vfs.segment_bytes":        float64(r.fs.n.SegmentBytes),
		"vfs.sidecar_bytes":        float64(r.fs.n.SidecarBytes),
	}, nil
}

// recordProbe prices the recorder: the same run unobserved and observed in
// memory, back to back, outside the op. It returns both times in ms.
func (w *spillWrite) recordProbe() (unobserved, observed float64, err error) {
	for i, cfg := range []*obs.Config{nil, {SampleEvery: sampleEvery, CheckpointEvery: checkpointEvy}} {
		m, _, err := newPCMachine(w.d, w.src, pcMem, cfg)
		if err != nil {
			return 0, 0, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := m.Run(); err != nil {
			return 0, 0, fmt.Errorf("record probe: %w", err)
		}
		d := ms(time.Since(t0))
		if i == 0 {
			unobserved = d
		} else {
			observed = d
		}
	}
	return unobserved, observed, nil
}

// dirBytes is every byte left in a spill directory: segments, sidecars and
// manifest.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
