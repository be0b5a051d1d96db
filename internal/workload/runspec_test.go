package workload_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"oclfpga/internal/obs"
	"oclfpga/internal/workload"
)

// parentMetas are the exact Meta key sets the spill writers emitted before
// RunSpec existed: oclprof (defaults, and every optional key), simbench (FF
// on and off), oclmon, and the perfbench fixture (a workload outside the
// registry). Spills carrying them must keep decoding, except oclmon's: its
// bytes embed the supervisor's slice schedule, so it is refused.
var parentMetas = []map[string]string{
	{"workload": "chanstall", "device": "s5", "ckptEvery": "0"},
	{"workload": "matmul", "device": "a10", "ckptEvery": "512", "inject": "mem-delay@100+400=30",
		"chandepthopt": "1", "stallmon": "1", "watch": "1", "order": "1", "timestamps": "hdl", "stalllimit": "5000"},
	{"workload": "simbench", "n": "256", "ckptEvery": "2048"},
	{"workload": "simbench", "n": "256", "ckptEvery": "2048", "disableFF": "1"},
	{"workload": "oclmon", "n": "8192", "tenant": "default", "slice": "250000", "cycle-budget": "50000000"},
	{"workload": "pcstall", "n": "4096"},
}

// TestRunSpecEncodesParentKeySets pins byte identity: a spec decoded from
// an oclprof or simbench writer's Meta re-encodes to exactly that Meta plus
// the version key, so spills written on the same flags keep manifests that
// differ only by "spec": "2".
func TestRunSpecEncodesParentKeySets(t *testing.T) {
	for _, meta := range parentMetas[:4] {
		s, err := workload.DecodeRunSpec(meta, 500)
		if err != nil {
			t.Fatalf("%v: %v", meta, err)
		}
		want := map[string]string{"spec": "2"}
		for k, v := range meta {
			want[k] = v
		}
		if got := s.Meta(); !reflect.DeepEqual(got, want) {
			t.Errorf("re-encoded %v\n  as %v", meta, got)
		}
	}
}

// TestRunSpecRefusesParentOclmonMeta: a version-1 supervised spec records a
// slice schedule no re-execution reproduces, so it is a typed refusal, and
// the same limits under version 2 decode to just the cycle budget.
func TestRunSpecRefusesParentOclmonMeta(t *testing.T) {
	_, err := workload.DecodeRunSpec(parentMetas[4], 1000)
	var me *workload.MetaError
	if !errors.As(err, &me) || !errors.Is(err, workload.ErrSlicedSpec) {
		t.Fatalf("got %v, want *MetaError wrapping ErrSlicedSpec", err)
	}
	v2 := map[string]string{"spec": "2"}
	for k, v := range parentMetas[4] {
		v2[k] = v
	}
	s, err := workload.DecodeRunSpec(v2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.RunSpec{Workload: "oclmon", N: 8192, SampleEvery: 1000, Tenant: "default", CycleBudget: 50000000}
	if s != want {
		t.Fatalf("decoded %+v, want %+v", s, want)
	}
}

func TestDecodeRunSpecRejectsBadValues(t *testing.T) {
	for key, val := range map[string]string{
		"n": "-1", "ckptEvery": "x", "cycle-budget": "1e9",
		"stallmon": "0", "trace": "yes", "device": "vu9p", "timestamps": "none",
		"inject": "explode@", "spec": "3",
	} {
		meta := map[string]string{"spec": "2", "workload": "matmul", key: val}
		_, err := workload.DecodeRunSpec(meta, 0)
		var me *workload.MetaError
		if !errors.As(err, &me) || me.Key != key {
			t.Errorf("%s=%q: got %v, want *MetaError for %s", key, val, err, key)
		}
	}
	var me *workload.MetaError
	if _, err := workload.DecodeRunSpec(map[string]string{"n": "4"}, 0); !errors.As(err, &me) || me.Key != "workload" {
		t.Errorf("missing workload: got %v", err)
	}
}

func TestBuildRefusesUnknownWorkload(t *testing.T) {
	_, err := workload.RunSpec{Workload: "pcstall"}.Build(nil)
	var uw *workload.UnknownWorkloadError
	if !errors.As(err, &uw) || uw.Name != "pcstall" {
		t.Fatalf("got %v, want *UnknownWorkloadError", err)
	}
}

// TestExecuteTraceReadsOutMonitors: the recorded post-run phase drains every
// monitor bank, so a traced matmul ends later than an untraced one and
// carries one record slice per instance.
func TestExecuteTraceReadsOutMonitors(t *testing.T) {
	base := workload.RunSpec{Workload: "matmul", N: 8, StallMon: true, Watch: true}
	plain, err := base.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Trace = true
	r, err := traced.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Traces["stallmon"]) != 2 || len(r.Traces["watch"]) != 1 || len(r.Traces["stallmon"][0]) == 0 {
		t.Fatalf("trace readout = %v", r.Traces)
	}
	if r.M.Cycle() <= plain.M.Cycle() {
		t.Fatalf("traced run ended at %d, untraced at %d: the readout runs no cycles", r.M.Cycle(), plain.M.Cycle())
	}
	if plain.Traces != nil {
		t.Fatal("an untraced spec read the monitors out")
	}
}

// TestExecuteMatchesRecordedSpill re-executes a spill's own recorded spec
// and requires the identical record — the property every rebuild rests on.
func TestExecuteMatchesRecordedSpill(t *testing.T) {
	spec := workload.RunSpec{Workload: "fir", N: 64, StallMon: true, Trace: true, SampleEvery: 100, CheckpointEvery: 256}
	dir := t.TempDir()
	cfg := spec.SegmentConfig(dir)
	cfg.MaxLines = 32
	seg, err := obs.NewSegmentSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Execute(seg); err != nil {
		t.Fatal(err)
	}
	log, err := obs.LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := workload.SpecFromManifest(&log.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("manifest records %+v, want %+v", got, spec)
	}
	var buf recordSink
	if _, err := got.Execute(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.events+buf.samples != len(log.Lines) || buf.end != log.Manifest.EndCycle {
		t.Fatalf("re-execution streamed %d lines to cycle %d, spill holds %d to cycle %d",
			buf.events+buf.samples, buf.end, len(log.Lines), log.Manifest.EndCycle)
	}
}

// recordSink counts what a run streams.
type recordSink struct {
	events, samples int
	end             int64
}

func (s *recordSink) Event(obs.Event)   { s.events++ }
func (s *recordSink) Sample(obs.Sample) { s.samples++ }
func (s *recordSink) Finalize(end int64) error {
	s.end = end
	return nil
}

// FuzzRunSpec holds the Meta decoder — its input comes from disk — to a
// typed error or a spec that survives encode∘decode unchanged.
func FuzzRunSpec(f *testing.F) {
	for _, meta := range parentMetas {
		raw, err := json.Marshal(meta)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, int64(1000))
	}
	f.Add([]byte(`{"workload":"chase","timestamps":"cl","trace":"1","spec":"1"}`), int64(0))
	f.Add([]byte(`{"workload":""}`), int64(-1))
	f.Add([]byte(`{}`), int64(0))
	f.Add([]byte(`{"workload":"oclmon","n":"1024","slice":"500","cycle-budget":"50000000"}`), int64(500))
	f.Fuzz(func(t *testing.T, raw []byte, sampleEvery int64) {
		var meta map[string]string
		if json.Unmarshal(raw, &meta) != nil {
			return
		}
		s, err := workload.DecodeRunSpec(meta, sampleEvery)
		if err != nil {
			var me *workload.MetaError
			if !errors.As(err, &me) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		enc := s.Meta()
		back, err := workload.DecodeRunSpec(enc, sampleEvery)
		if err != nil {
			t.Fatalf("re-decoding %v: %v", enc, err)
		}
		if back != s {
			t.Fatalf("round trip changed the spec:\n  %+v\n  %+v", s, back)
		}
		if again := back.Meta(); !reflect.DeepEqual(again, enc) {
			t.Fatalf("encoding is not stable: %v vs %v", enc, again)
		}
	})
}
