package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"oclfpga/internal/fault"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
)

// instrumentedSpecs are registry runs whose ibuffers poll every cycle, so
// they skip cycles only through the idle-fixpoint rule.
var instrumentedSpecs = []RunSpec{
	smallSpecs["matmul"],
	smallSpecs["fir"],
	smallSpecs["chase"],
}

// ffObserved is one observed execution: what must not depend on
// fast-forward, and the jumps that do.
type ffObserved struct {
	traces  any
	profile sim.ProfileReport
	spill   string // NDJSON spill, ff-jump lines and checkpoint FF stats removed
	jumps   []obs.Event
	ff      sim.FastForwardStats
}

var ckptFFStats = regexp.MustCompile(` jumps=\d+ skipped=\d+`)

func executeObserved(t *testing.T, spec RunSpec) ffObserved {
	t.Helper()
	var buf bytes.Buffer
	r, err := spec.Execute(obs.NewNDJSONSink(&buf, spec.Workload, spec.SampleEvery))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(l, `"kind":"`+obs.KindFFJump+`"`) {
			lines = append(lines, ckptFFStats.ReplaceAllString(l, ""))
		}
	}
	return ffObserved{
		traces:  r.Traces,
		profile: r.M.Profile(r.Units...),
		spill:   strings.Join(lines, "\n"),
		jumps:   r.M.Timeline().FFJumps,
		ff:      r.M.FastForwardStats(),
	}
}

// dumpsAt re-executes spec and returns its state dump at each cycle.
func dumpsAt(t *testing.T, spec RunSpec, cycles []int64) []string {
	t.Helper()
	var dumps []string
	err := spec.Inspect(cycles, func(m *sim.Machine, _ int64) error {
		b, err := json.Marshal(m.StateDump())
		dumps = append(dumps, string(b))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dumps
}

// TestInstrumentedFastForwardExact holds the idle-fixpoint rule to the
// determinism contract on the instrumented registry workloads: fast-forward
// must engage, and the trace readout, the profile counters, the observed
// spill (samples and checkpoint state hashes included) and state dumps at
// cycles inside jumped windows must equal those of a run that steps every
// cycle.
func TestInstrumentedFastForwardExact(t *testing.T) {
	for _, spec := range instrumentedSpecs {
		spec.SampleEvery, spec.CheckpointEvery = 100, 1000
		t.Run(spec.Workload, func(t *testing.T) {
			step := spec
			step.DisableFF = true
			want, got := executeObserved(t, step), executeObserved(t, spec)
			if want.ff.Jumps != 0 {
				t.Fatalf("stepped run jumped: %+v", want.ff)
			}
			if got.ff.Jumps == 0 {
				t.Fatal("fast-forward never engaged on the instrumented run")
			}
			if !reflect.DeepEqual(want.traces, got.traces) {
				t.Fatal("trace readout differs with fast-forward")
			}
			if !reflect.DeepEqual(want.profile, got.profile) {
				t.Fatalf("profile differs with fast-forward:\n%s\n%s", want.profile, got.profile)
			}
			if want.spill != got.spill {
				t.Fatalf("observed spill differs with fast-forward:\n%s", firstLineDiff(want.spill, got.spill))
			}
			var inside []int64
			for i, j := range got.jumps {
				if j.End > j.Start && i%(len(got.jumps)/4+1) == 0 {
					inside = append(inside, (j.Start+j.End)/2)
				}
			}
			if len(inside) == 0 {
				t.Fatal("no jumped window to dump inside")
			}
			if !reflect.DeepEqual(dumpsAt(t, step, inside), dumpsAt(t, spec, inside)) {
				t.Fatalf("state dumps at %v differ with fast-forward", inside)
			}
		})
	}
}

// TestHungInstrumentedRunBlame freezes the matmul under its monitors for
// good: the idle monitors let the machine jump to the stall limit, and the
// deadlock report must be the stepped run's.
func TestHungInstrumentedRunBlame(t *testing.T) {
	spec := smallSpecs["matmul"]
	spec.Inject, spec.StallLimit = "stuck:matmul@1500", 2000
	report := func(spec RunSpec) (*sim.DeadlockReport, sim.FastForwardStats) {
		t.Helper()
		r, err := spec.Execute(nil)
		var de *sim.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("frozen matmul: got %v, want a deadlock", err)
		}
		return de.Report, r.M.FastForwardStats()
	}
	step := spec
	step.DisableFF = true
	want, _ := report(step)
	got, ff := report(spec)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("deadlock report differs with fast-forward:\n%+v\n%+v", want, got)
	}
	if ff.Jumps == 0 {
		t.Fatal("the hung run never fast-forwarded past its idle monitors")
	}
}

// TestInstrumentedFaultCampaignFastForward runs seeded fault plans aimed at
// the monitors' channels and kernels and at the design under test: frozen and
// deepened channels, dropped writes, stuck units. Each run's outcome, trace
// readout, profile and final state must be the same with fast-forward on and
// off.
func TestInstrumentedFaultCampaignFastForward(t *testing.T) {
	targets := map[string]fault.CampaignSpec{
		"matmul": {Channels: []string{"sm_ibuf_data_in[0]", "sm_ibuf_cmd_c[1]", "wp_ibuf_addr_in_c[0]"},
			Kernels: []string{"matmul", "sm_ibuf", "wp_ibuf"}},
		"fir":   {Channels: []string{"fir_sm_data_in[0]", "fir_sm_cmd_c[0]"}, Kernels: []string{"fir", "fir_sm"}},
		"chase": {Channels: []string{"chase_ibuf_data_in[0]"}, Kernels: []string{"chase", "chase_ibuf"}},
	}
	outcome := func(spec RunSpec) string {
		t.Helper()
		r, err := spec.Execute(nil)
		if r == nil {
			t.Fatalf("%s: %v", spec.Inject, err)
		}
		var end any = fmt.Sprint(err)
		var de *sim.DeadlockError
		if errors.As(err, &de) {
			end = de.Report
		}
		b, err := json.Marshal([]any{end, r.Traces, r.M.Profile(r.Units...), r.M.StateDump()})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, base := range instrumentedSpecs {
		cs := targets[base.Workload]
		cs.AllowFatal, cs.AllowDrop, cs.Horizon, cs.MaxTransient = true, true, 3000, 800
		for seed := int64(1); seed <= 20; seed++ {
			spec := base
			spec.Inject, spec.StallLimit = fault.NewRandomPlan(seed, cs).String(), 3000
			step := spec
			step.DisableFF = true
			if want, got := outcome(step), outcome(spec); want != got {
				t.Fatalf("%s %q differs with fast-forward:\n%s\n%s", base.Workload, spec.Inject, want, got)
			}
		}
	}
}

// firstLineDiff renders the first differing line of two texts.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return "line " + al[i] + "\n  vs " + bl[i]
		}
	}
	return "one text is a prefix of the other"
}

// TestStuckReplicaByUnitName freezes one replica of the matmul's stall
// monitor by its unit name. The hang report must blame sm_ibuf[0] alone, its
// trace buffer must stop filling while sm_ibuf[1]'s keeps growing, and every
// observation must be the same with fast-forward on and off.
func TestStuckReplicaByUnitName(t *testing.T) {
	spec := smallSpecs["matmul"]
	spec.Inject = "stuck:sm_ibuf[0]@500"
	type seen struct {
		stuck  []string
		blame  string
		writes map[string]int64
	}
	observe := func(spec RunSpec) []seen {
		t.Helper()
		var out []seen
		err := spec.Inspect([]int64{1000, 2000}, func(m *sim.Machine, _ int64) error {
			rep := m.DeadlockReport(sim.ReasonBudget)
			s := seen{blame: rep.Blame, writes: map[string]int64{}}
			for _, w := range rep.Waits {
				if w.Stuck {
					s.stuck = append(s.stuck, fmt.Sprintf("%s@%d", w.Unit, w.Since))
				}
			}
			for _, u := range m.StateDump().Units {
				for _, lm := range u.Locals {
					s.writes[u.Unit] += lm.Writes
				}
			}
			out = append(out, s)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got := observe(spec)
	for _, s := range got {
		if !reflect.DeepEqual(s.stuck, []string{"sm_ibuf[0]@500"}) {
			t.Fatalf("stuck units = %v, want only sm_ibuf[0] since 500", s.stuck)
		}
		if !strings.Contains(s.blame, "sm_ibuf[0]") {
			t.Fatalf("blame %q does not name sm_ibuf[0]", s.blame)
		}
	}
	if a, b := got[0].writes["sm_ibuf[0]"], got[1].writes["sm_ibuf[0]"]; a != b {
		t.Errorf("frozen sm_ibuf[0] kept writing its trace: %d -> %d", a, b)
	}
	if a, b := got[0].writes["sm_ibuf[1]"], got[1].writes["sm_ibuf[1]"]; b <= a {
		t.Errorf("sm_ibuf[1] stopped with its sibling: %d -> %d", a, b)
	}
	step := spec
	step.DisableFF = true
	if want := observe(step); !reflect.DeepEqual(want, got) {
		t.Fatalf("observations differ with fast-forward:\n%+v\n%+v", want, got)
	}
}
