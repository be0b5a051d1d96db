package supervise_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"oclfpga/internal/experiments"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
	"oclfpga/internal/supervise"
)

// The chaos suite throws every failure mode the supervision layer claims to
// absorb at one supervisor — panicking starts, detonating sinks, hangs,
// transient finalize outages, a repeatedly-broken workload — and checks the
// contract: every admitted run reaches exactly one classified terminal state,
// failures carry diagnostics, and the process (this test) never dies. The
// recovery half crashes a spilling run mid-flight, tears its open segment,
// and proves the supervised replay reconstructs the record byte-for-byte.

// startBench stages the experiments simbench workload on a fresh machine,
// mirroring experiments.setupSimBench exactly — buffer fills and MemConfig
// must match so a re-executed run reproduces the reference event stream.
func startBench(t *testing.T, n int, disableFF bool, sink obs.Sink) *sim.Machine {
	t.Helper()
	d, err := experiments.CompileSimBench(n)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(d, sim.Options{
		DisableFastForward: disableFF,
		MemConfig:          mem.Config{RowHitLat: 60, RowMissLat: 200},
		Observe:            &obs.Config{SampleEvery: 500, Sink: sink},
	})
	src, err := m.NewBuffer("src", kir.I32, n)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := m.NewBuffer("tbl", kir.I32, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewBuffer("dst", kir.I32, n); err != nil {
		t.Fatal(err)
	}
	for i := range src.Data {
		src.Data[i] = int64(i + 1)
	}
	for i := range tbl.Data {
		tbl.Data[i] = int64(i % 97)
	}
	if _, err := m.Launch("producer", sim.Args{"src": src}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Launch("consumer", sim.Args{"tbl": tbl, "dst": m.Buffer("dst")}); err != nil {
		t.Fatal(err)
	}
	return m
}

// detonator is a sink that panics mid-stream after a few events — the "sink
// code itself crashes" chaos ingredient.
type detonator struct{ left int }

func (d *detonator) Event(obs.Event) {
	d.left--
	if d.left < 0 {
		panic("chaos: sink detonated")
	}
}
func (d *detonator) Sample(obs.Sample)    {}
func (d *detonator) Finalize(int64) error { return nil }

// outage is a sink whose Finalize fails transiently — recovered by the
// supervisor's FinalizeRetry backoff loop.
type outage struct {
	mu    sync.Mutex
	fails int
}

func (o *outage) Event(obs.Event)   {}
func (o *outage) Sample(obs.Sample) {}
func (o *outage) Finalize(int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fails > 0 {
		o.fails--
		return errors.New("chaos: transient sink outage")
	}
	return nil
}

func TestChaosEveryRunTerminatesClassified(t *testing.T) {
	sup := supervise.New(supervise.Config{
		Slots: 3, Queue: 16,
		Breaker: supervise.BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		Sleep:   func(time.Duration) {}, // retry instantly; schedule is tested elsewhere
	})
	defer sup.Close()

	var (
		mu       sync.Mutex
		outcomes = map[string]supervise.Outcome{}
		wg       sync.WaitGroup
	)
	submit := func(id string, lim supervise.Limits, start func() (*sim.Machine, error), retry func() error) {
		t.Helper()
		wg.Add(1)
		err := sup.Submit(supervise.Spec{
			ID: id, Workload: id, Limits: lim, Start: start, FinalizeRetry: retry,
			Done: func(_ *sim.Machine, out supervise.Outcome) {
				mu.Lock()
				outcomes[id] = out
				mu.Unlock()
				wg.Done()
			},
		})
		if err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}

	// Two healthy runs, a budget-bound hang, a panicking compile, and a run
	// whose sink detonates mid-stream — all in flight together.
	submit("ok-1", supervise.Limits{}, func() (*sim.Machine, error) { return startBench(t, 48, false, nil), nil }, nil)
	submit("ok-2", supervise.Limits{}, func() (*sim.Machine, error) { return startBench(t, 48, true, nil), nil }, nil)
	submit("hang", supervise.Limits{CycleBudget: 1500, Slice: 200},
		func() (*sim.Machine, error) { return startBench(t, 64, false, nil), nil }, nil)
	submit("panic-start", supervise.Limits{},
		func() (*sim.Machine, error) { panic("chaos: compile exploded") }, nil)
	// A short first slice hands the sink its records while kernels are
	// still running, so the detonation diagnoses a machine mid-flight.
	submit("panic-sink", supervise.Limits{Slice: 64},
		func() (*sim.Machine, error) { return startBench(t, 48, false, &detonator{left: 3}), nil }, nil)

	// A transient sink outage: finalize fails twice, the retry loop commits.
	flaky := &outage{fails: 2}
	submit("flaky-sink", supervise.Limits{},
		func() (*sim.Machine, error) { return startBench(t, 48, false, flaky), nil },
		func() error { return flaky.Finalize(0) })

	wg.Wait()

	// A workload that fails repeatedly trips its breaker; later submissions
	// are quarantined without executing (sequential so the failure history is
	// deterministic).
	for i := 0; i < 2; i++ {
		wg.Add(1)
		err := sup.Submit(supervise.Spec{
			ID: "broken", Workload: "broken",
			Start: func() (*sim.Machine, error) { return nil, errors.New("chaos: no bitstream") },
			Done:  func(_ *sim.Machine, out supervise.Outcome) { wg.Done() },
		})
		if err != nil {
			t.Fatalf("broken submit %d: %v", i, err)
		}
		wg.Wait()
	}
	var quarantined supervise.Outcome
	err := sup.Submit(supervise.Spec{
		ID: "broken", Workload: "broken",
		Start: func() (*sim.Machine, error) { t.Error("quarantined run executed"); return nil, nil },
		Done:  func(_ *sim.Machine, out supervise.Outcome) { quarantined = out },
	})
	if !errors.Is(err, supervise.ErrQuarantined) {
		t.Fatalf("post-breaker submit = %v, want ErrQuarantined", err)
	}
	if quarantined.State != supervise.StateQuarantined || quarantined.Err == nil {
		t.Fatalf("quarantined outcome = %+v", quarantined)
	}

	// Every run landed in exactly one classified terminal state.
	for id, out := range outcomes {
		switch out.State {
		case supervise.StateCompleted:
			if out.Err != nil {
				t.Errorf("%s: completed with error %v", id, out.Err)
			}
		case supervise.StateFailed:
			if out.Err == nil {
				t.Errorf("%s: failed without error", id)
			}
		default:
			t.Errorf("%s: non-terminal state %s", id, out.State)
		}
	}
	for _, id := range []string{"ok-1", "ok-2", "flaky-sink"} {
		if outcomes[id].State != supervise.StateCompleted {
			t.Errorf("%s = %+v, want completed", id, outcomes[id])
		}
	}
	if out := outcomes["flaky-sink"]; out.SinkRetries != 2 {
		t.Errorf("flaky-sink retries = %d, want 2", out.SinkRetries)
	}
	if out := outcomes["hang"]; out.Diagnostic == nil || out.Diagnostic.Reason != sim.ReasonBudget {
		t.Errorf("hang diagnostic = %+v, want ReasonBudget", out.Diagnostic)
	}
	if out := outcomes["panic-start"]; out.PanicValue == nil {
		t.Errorf("panic-start lost its panic value: %+v", out)
	}
	if out := outcomes["panic-sink"]; out.PanicValue == nil ||
		out.Diagnostic == nil || out.Diagnostic.Reason != sim.ReasonPanic {
		t.Errorf("panic-sink = %+v, want ReasonPanic diagnostic", out)
	} else if d := out.Diagnostic; strings.HasPrefix(d.Blame, "diagnosis unavailable") || len(d.Waits) == 0 {
		t.Errorf("panic-sink diagnostic is not the machine's report: blame %q, %d waits", d.Blame, len(d.Waits))
	}

	st := sup.Stats()
	if st.Completed != 3 || st.Failed != 5 || st.Quarantined != 1 || st.Panics != 2 {
		t.Errorf("stats = %+v, want 3 completed / 5 failed / 1 quarantined / 2 panics", st)
	}
}

// TestChaosCrashRecoveryByteIdentical crashes a spilling run mid-flight
// (abandoned machine, torn open segment), then recovers it under the
// supervisor: the resumed run re-executes deterministically, verifies the
// durable prefix, and the stitched record is byte-identical to an
// uninterrupted run's — with fast-forward on and off. The uninterrupted
// reference stream is captured through the experiments newSim hook.
func TestChaosCrashRecoveryByteIdentical(t *testing.T) {
	const n = 96
	records := map[string]*obs.Timeline{}
	for _, tc := range []struct {
		name      string
		disableFF bool
	}{{"ff-on", false}, {"ff-off", true}} {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: an uninterrupted run, spilled via the experiments
			// observability hook so the stream comes from the same code path
			// every experiment uses.
			var clean bytes.Buffer
			experiments.EnableObserveSinkForTest(500, func(design string, sampleEvery int64) obs.Sink {
				return obs.NewNDJSONSink(&clean, design, sampleEvery)
			})
			_, err := experiments.RunSimBench(n, tc.disableFF)
			experiments.DisableObserveForTest()
			if err != nil {
				t.Fatal(err)
			}

			// Crash: run partway into a segmented spill, abandon the machine,
			// and tear the open segment to simulate a mid-write power cut.
			dir := t.TempDir()
			cfg := obs.SegmentConfig{Dir: dir, Design: "simbench", SampleEvery: 500, MaxLines: 32}
			seg, err := obs.NewSegmentSink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := startBench(t, n, tc.disableFF, seg)
			if err := m.RunFor(6000); err == nil {
				t.Fatal("run finished before the crash point")
			}
			if parts, _ := filepath.Glob(filepath.Join(dir, "*.part")); len(parts) == 1 {
				fi, err := os.Stat(parts[0])
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() > 4 {
					if err := os.Truncate(parts[0], fi.Size()-4); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Recover: load the durable prefix and re-execute under the
			// supervisor with a resume sink verifying byte-identity.
			slog, err := obs.LoadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(slog.Lines) == 0 {
				t.Fatal("crash left no durable prefix")
			}
			sup := supervise.New(supervise.Config{Slots: 1})
			defer sup.Close()
			var resumed *obs.SegmentSink
			done := make(chan supervise.Outcome, 1)
			err = sup.Submit(supervise.Spec{
				ID: "recover", Workload: "simbench",
				Start: func() (*sim.Machine, error) {
					var err error
					resumed, err = obs.NewResumeSink(cfg, &slog.Manifest)
					if err != nil {
						return nil, err
					}
					return startBench(t, n, tc.disableFF, resumed), nil
				},
				Done:          func(_ *sim.Machine, out supervise.Outcome) { done <- out },
				FinalizeRetry: func() error { return resumed.RetryFinalize() },
			})
			if err != nil {
				t.Fatal(err)
			}
			out := <-done
			if out.State != supervise.StateCompleted {
				t.Fatalf("recovery outcome %+v", out)
			}
			if resumed.Verified() != len(slog.Lines) {
				t.Fatalf("verified %d of %d durable lines", resumed.Verified(), len(slog.Lines))
			}

			// The stitched segments replay byte-identically to the reference.
			stitched, err := obs.LoadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !stitched.Manifest.Complete {
				t.Fatalf("recovered manifest incomplete: %+v", stitched.Manifest)
			}
			tl, ser, err := stitched.Replay()
			if err != nil {
				t.Fatal(err)
			}
			wantTl, wantSer, err := obs.ReplayNDJSON(bytes.NewReader(clean.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := marshalTimeline(t, tl), marshalTimeline(t, wantTl); !bytes.Equal(got, want) {
				t.Error("recovered timeline differs from uninterrupted run")
			}
			var got, want bytes.Buffer
			if err := obs.WriteSeries(&got, ser); err != nil {
				t.Fatal(err)
			}
			if err := obs.WriteSeries(&want, wantSer); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Error("recovered series differs from uninterrupted run")
			}
			records[tc.name] = tl
		})
	}

	// FF-on and FF-off recoveries describe the same execution: identical
	// timelines once the FF bookkeeping track is set aside.
	if on, off := records["ff-on"], records["ff-off"]; on != nil && off != nil {
		on.FFJumps, off.FFJumps = nil, nil
		if !bytes.Equal(marshalTimeline(t, on), marshalTimeline(t, off)) {
			t.Error("ff-on and ff-off recoveries diverge")
		}
	}
}

func marshalTimeline(t *testing.T, tl *obs.Timeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTimeline(&buf, tl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
