package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"oclfpga/internal/obs"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/sim"
)

// smallSpecs is one spec per registry workload, sized for tests that run
// each several times: host phases (monitor start, trace readout) and
// instrumentation are on wherever the workload has them.
var smallSpecs = map[string]RunSpec{
	"matvec-st": {Workload: "matvec-st", N: 16},
	"matvec-nd": {Workload: "matvec-nd", N: 16, Order: true},
	"matmul":    {Workload: "matmul", N: 8, StallMon: true, Watch: true, Trace: true},
	"chase":     {Workload: "chase", N: 200, Timestamps: "hdl"},
	"vecadd":    {Workload: "vecadd", N: 128},
	"fir":       {Workload: "fir", N: 64, StallMon: true, Trace: true},
	"chanstall": {Workload: "chanstall", N: 128},
	"oclmon":    {Workload: "oclmon", N: 48},
	"simbench":  {Workload: "simbench", N: 48},
}

// registryNames is the registry's workload names in sorted order.
func registryNames(t testing.TB) []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		if _, ok := smallSpecs[name]; !ok {
			t.Fatalf("registry workload %q has no small spec", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// breakSpecs is every break kind aimed at r's busiest channel and at each
// launched unit, plus cycle breaks a third and halfway through the run.
func breakSpecs(r *Run) []string {
	specs := []string{fmt.Sprintf("cycle=%d", r.M.Cycle()/3), fmt.Sprintf("cycle=%d", r.M.Cycle()/2)}
	busiest, most := "", int64(-1)
	for _, c := range r.Design.Program.Chans {
		st := r.M.Channel(c.Name).Stats()
		if n := st.ReadStalls + st.WriteStalls; n > most {
			busiest, most = c.Name, n
		}
	}
	if busiest != "" {
		for _, s := range []string{"len>0", "len>2", "stall>5", "stall>50", "stall>150", "read-stall>20", "write-stall>3"} {
			specs = append(specs, "chan:"+busiest+"."+s)
		}
	}
	for _, u := range r.Units {
		for _, s := range []string{"blocked", "running", "done"} {
			specs = append(specs, "unit:"+u.Kernel().UnitName()+".state="+s)
		}
	}
	return specs
}

// TestBreaksUnderFastForward: breaks are deadlines, not a reason to step,
// so every break kind halts at the same cycle with the same hit and the same
// machine state whether the fabric fast-forwards or steps every cycle.
func TestBreaksUnderFastForward(t *testing.T) {
	halt := func(spec RunSpec, b string, noFF bool) (*haltReport, sim.FastForwardStats) {
		t.Helper()
		breaks, err := query.ParseBreaks(b)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetFastForwardDisabled(noFF)
		defer sim.SetFastForwardDisabled(false)
		r, hit, err := spec.Halt(breaks, nil)
		if err != nil {
			t.Fatalf("%s %s: %v", spec.Workload, b, err)
		}
		state, err := json.Marshal(r.M.StateDump())
		if err != nil {
			t.Fatal(err)
		}
		return &haltReport{hit, string(state)}, r.M.FastForwardStats()
	}
	for _, name := range registryNames(t) {
		spec := smallSpecs[name]
		t.Run(name, func(t *testing.T) {
			r, err := spec.Execute(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range breakSpecs(r) {
				ff, _ := halt(spec, b, false)
				step, _ := halt(spec, b, true)
				if !reflect.DeepEqual(ff, step) {
					t.Errorf("%s: fast-forward halt %+v\nstepped halt %+v", b, ff, step)
				}
			}
		})
	}
	rep, ff := halt(RunSpec{Workload: "chanstall"}, "chan:pipe.stall>50", false)
	if rep.Hit == nil || ff.Jumps == 0 {
		t.Fatalf("chanstall stall break: hit %+v with %d jumps; want a hit reached by fast-forward", rep.Hit, ff.Jumps)
	}
}

// haltReport is one halt as the comparison sees it.
type haltReport struct {
	Hit   *sim.BreakHit
	State string
}

// FuzzSliceSchedule holds the record to slice invariance: a registry
// workload driven through an arbitrary RunFor schedule — 1-cycle slices,
// cuts on the sample and checkpoint grids, long slices, and host-phase
// commands retried on short budgets — writes a spill (segments, sidecars,
// manifest) byte-identical to one Execute's.
func FuzzSliceSchedule(f *testing.F) {
	names := registryNames(f)
	for i := range names {
		f.Add(uint8(i), []byte{0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 200, 77, 5})
	}
	f.Fuzz(func(t *testing.T, pick uint8, schedule []byte) {
		spec := smallSpecs[names[int(pick)%len(names)]]
		spec.SampleEvery, spec.CheckpointEvery = 100, 128
		root := t.TempDir()
		want := filepath.Join(root, "execute")
		seg := spillSink(t, spec, want)
		if _, err := spec.Execute(seg); err != nil {
			t.Fatal(err)
		}
		got := filepath.Join(root, "sliced")
		seg = spillSink(t, spec, got)
		r, err := spec.Build(spec.Observe(seg))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range r.probes {
			p.ctl.SendTimeout, p.ctl.Retries = 3, 40
		}
		done := false
		for _, b := range schedule {
			if done {
				break
			}
			c := r.M.Cycle()
			slice := int64(b) * 37
			switch b % 4 {
			case 0:
				slice = 1
			case 1:
				slice = spec.SampleEvery - c%spec.SampleEvery
			case 2:
				slice = spec.CheckpointEvery - c%spec.CheckpointEvery
			}
			var de *sim.DeadlockError
			switch err := r.M.RunFor(slice); {
			case err == nil:
				done = true
			case !errors.As(err, &de) || !de.Timeout():
				t.Fatal(err)
			}
		}
		if err := r.M.Run(); err != nil {
			t.Fatal(err)
		}
		if err := r.PostRun(); err != nil {
			t.Fatal(err)
		}
		if r.sinkFinal {
			err = seg.Finalize(r.M.Cycle())
		} else {
			r.M.Timeline()
			err = r.M.ObserveErr()
		}
		if err != nil {
			t.Fatal(err)
		}
		sameDir(t, want, got)
	})
}

func spillSink(t *testing.T, spec RunSpec, dir string) *obs.SegmentSink {
	t.Helper()
	cfg := spec.SegmentConfig(dir)
	cfg.MaxLines = 48
	seg, err := obs.NewSegmentSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// sameDir requires two spill directories to hold the same files, byte for
// byte.
func sameDir(t *testing.T, want, got string) {
	t.Helper()
	ents, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	gotEnts, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(gotEnts) {
		t.Fatalf("sliced spill holds %d files, Execute's %d", len(gotEnts), len(ents))
	}
	for _, e := range ents {
		a, err := os.ReadFile(filepath.Join(want, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(got, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between the sliced run and Execute", e.Name())
		}
	}
}
