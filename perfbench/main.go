// Command perfbench is the repository's end-to-end benchmark. One invocation
// runs one workload for a fixed wall time with a given seed, checks every
// operation's output, and prints one JSON result line: the end-to-end metrics
// with --trace 0, the per-layer ledger with --trace 1. See README.md.
//
//	go run . --workload spill-write --seed 1 --seconds 10 --trace 0 --root ../.bench_build
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minOps is the fewest timed ops a run reports: the 90th percentile then has
// at least ten samples beyond it.
const minOps = 100

// opStats is what one op's clock read: its wall time, and the CPU and peak
// RSS of the process(es) doing the work over the same interval.
type opStats struct {
	wall, cpu time.Duration
	rssMB     float64
}

// opOut is one op's result.
type opOut struct {
	opStats
	// counts are exact and must repeat on every op and every run of a seed.
	counts map[string]int64
	// layers are per-layer values the spans alone do not give (rates,
	// percentages, counts); filled on traced ops.
	layers map[string]float64
}

// bench is one workload. setup may be called several times (the benchmark
// reports the median set-up time); the last call's state serves the ops.
type bench interface {
	setup() error
	op(l *ledger) (opOut, error)
	close()
}

type env struct {
	root      string // scratch directory inside the checkout
	seed      int64
	traceDir  string
	oclmon    string    // the oclmon binary, built before set-up
	compileMs []float64 // hls.Compile time of every set-up
	// proc is the /proc directory of the process doing the work, whose peak
	// RSS is reported; childCPU, if set, is the CPU of a child process doing
	// work, added to this process's. A workload whose work runs in a child
	// sets both in set-up.
	proc     string
	childCPU func() time.Duration
}

// opClock is a started op clock.
type opClock struct {
	t0   time.Time
	cpu0 time.Duration
}

// startOp resets the working process's peak RSS, samples the CPU, and starts
// the op clock (opening the op's root span when tracing). stopOp reads all
// three back, so an op's CPU and peak RSS cover its wall interval and leave
// out the check that follows it and the collection that precedes it.
func (e *env) startOp(l *ledger) opClock {
	_ = resetHWM(e.proc) // run checked once that the reset works
	cpu0 := e.cpu()
	return opClock{t0: l.startOp(), cpu0: cpu0}
}

func (e *env) stopOp(l *ledger, c opClock) opStats {
	wall := l.stopOp(c.t0)
	return opStats{wall: wall, cpu: e.cpu() - c.cpu0, rssMB: vmHWM(e.proc + "/status")}
}

// cpu is the user+sys CPU of this process, from getrusage, plus that of the
// child doing work, if any.
func (e *env) cpu() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	t := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	if e.childCPU != nil {
		t += e.childCPU()
	}
	return t
}

// compiled records the time since t0 as one set-up's hls.Compile time.
func (e *env) compiled(t0 time.Time) { e.compileMs = append(e.compileMs, ms(time.Since(t0))) }

// newRNG returns the seed's input generator. Every set-up starts a fresh
// one, so repeated set-ups make identical inputs.
func (e *env) newRNG() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

var workloads = map[string]func(*env) bench{
	"spill-write":   newSpillWrite,
	"stallmon-tick": newStallmon,
	"spill-read":    newSpillRead,
	"monitor-sse":   newMonitor,
}

// setupReps is how many times each workload sets up; the median is setup_s.
// Compiling a design takes about a millisecond, so the compile-only set-ups
// repeat more to keep their median steady.
var setupReps = map[string]int{"spill-write": 21, "stallmon-tick": 21, "spill-read": 5, "monitor-sse": 5}

func main() {
	wl := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured wall time")
	traced := flag.Int("trace", 0, "1: print the per-layer ledger instead of end-to-end metrics")
	root := flag.String("root", ".bench_build", "build and scratch directory")
	oclmon := flag.String("oclmon", "", "oclmon binary (monitor-sse)")
	buildID := flag.String("build-id", "", "identity of the build under test; keys the determinism guard's stored counts (none stored if empty)")
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *traced == 1, *root, *oclmon, *buildID); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(wl string, seed int64, seconds int, traced bool, root, oclmon, buildID string) error {
	mk, ok := workloads[wl]
	if !ok {
		return fmt.Errorf("unknown workload %q", wl)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	work := filepath.Join(abs, "spill", fmt.Sprintf("%s-%d", wl, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{root: work, seed: seed, traceDir: filepath.Join(abs, "traces"), oclmon: oclmon, proc: "/proc/self"}
	fp := fingerprint(work)
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("# fingerprint %s\n", fpJSON)

	b := mk(e)
	defer b.close()
	var setups []float64
	for i := 0; i < setupReps[wl]; i++ {
		runtime.GC() // as before every op (see runOp): set-ups start from a collected heap
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if err := resetHWM(e.proc); err != nil {
		return err
	}
	g := &guard{}
	if buildID != "" {
		g.path = filepath.Join(abs, "guard", buildID, fmt.Sprintf("%s-seed%d.json", wl, seed))
	}
	var res *result
	if traced {
		res, err = measureTraced(b, g, time.Duration(seconds)*time.Second, wl, e, fp)
	} else {
		res, err = measure(b, g, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	if !traced {
		res.metrics["setup_s"] = metric{median(setups), "s"}
	}
	if err := g.save(); err != nil {
		return err
	}
	out, err := json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": res.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int
	metrics           map[string]metric
}

// warmupTime is how long ops run before timing starts. On the 2-vCPU
// virtual machine the benchmark was tuned on, op times fall by a quarter
// over the first three seconds of load after an idle spell.
const warmupTime = 3 * time.Second

// warmup runs ops until the host, the recorder's pooled storage and the
// page cache are warm; their times are discarded but their outputs are
// checked like any other op.
func warmup(b bench, g *guard, res *result) error {
	t0 := time.Now()
	for i := 0; i < 3 || time.Since(t0) < warmupTime; i++ {
		out, err := runOp(b, nil)
		if err := res.tally(g, out, err); err != nil {
			return err
		}
	}
	return nil
}

// runOp collects the heap and runs one op. Each op so starts from the same
// heap state: one op's garbage is not collected on the next op's clock. The
// collection stays outside the op's clock and its CPU.
func runOp(b bench, l *ledger) (opOut, error) {
	runtime.GC()
	return b.op(l)
}

// resetHWM resets VmHWM of the process at proc to its current RSS.
func resetHWM(proc string) error {
	if err := os.WriteFile(proc+"/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// tally counts one op and feeds its exact counts to the determinism guard.
// A failed check fails the op; a count that differs fails the run.
func (r *result) tally(g *guard, out opOut, err error) error {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", r.attempted, err)
		return nil
	}
	return g.check(out.counts)
}

// more reports whether a run that started at t0 takes another op: until d
// has passed, and beyond it, up to twice d, until n reaches min.
func more(t0 time.Time, d time.Duration, n, min int) bool {
	el := time.Since(t0)
	return el < d || (n < min && el < 2*d)
}

// measure is the end-to-end run: tracing off, closed loop, one client.
func measure(b bench, g *guard, d time.Duration) (*result, error) {
	res := &result{metrics: map[string]metric{}}
	if err := warmup(b, g, res); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var walls, rss []float64
	var cpu time.Duration
	for more(t0, d, len(walls), minOps) {
		out, err := runOp(b, nil)
		if err := res.tally(g, out, err); err != nil {
			return nil, err
		}
		if err == nil {
			walls = append(walls, ms(out.wall))
			rss = append(rss, out.rssMB)
			cpu += out.cpu
		}
	}
	if len(walls) == 0 {
		return res, nil
	}
	sort.Float64s(walls)
	res.metrics["op_p50_ms"] = metric{median(walls), "ms"}
	res.metrics["op_p90_ms"] = metric{walls[int(math.Ceil(0.9*float64(len(walls))))-1], "ms"}
	res.metrics["cpu_ms_per_op"] = metric{ms(cpu) / float64(len(walls)), "ms"}
	res.metrics["peak_rss_mb"] = metric{median(rss), "MiB"}
	return res, nil
}

// measureTraced is the ledger run. Ops alternate untraced and traced, so the
// tracing overhead is priced against untraced ops run in the same minute.
func measureTraced(b bench, g *guard, d time.Duration, wl string, e *env, fp map[string]any) (*result, error) {
	res := &result{metrics: map[string]metric{}}
	if err := warmup(b, g, res); err != nil {
		return nil, err
	}
	l := newLedger()
	var plain, tracedWalls []float64
	perLayer := map[string][]float64{}
	t0 := time.Now()
	for op := 0; more(t0, d, len(tracedWalls), minOps/2); op++ {
		var lg *ledger
		if op%2 == 1 {
			lg = l
			l.op = op
		}
		out, err := runOp(b, lg)
		if err := res.tally(g, out, err); err != nil {
			return nil, err
		}
		if err != nil {
			continue
		}
		if lg == nil {
			plain = append(plain, ms(out.wall))
			continue
		}
		tracedWalls = append(tracedWalls, ms(out.wall))
		self, wall := l.opSelf(op)
		for name, v := range self {
			if name != "op" {
				perLayer[spanMetric(name)] = append(perLayer[spanMetric(name)], v)
			}
		}
		perLayer["ledger.unaccounted_pct"] = append(perLayer["ledger.unaccounted_pct"], 100*self["op"]/wall)
		for name, v := range out.layers {
			perLayer[name] = append(perLayer[name], v)
		}
	}
	perLayer["hls.compile_ms"] = e.compileMs
	if f, ok := b.(interface{ finalLayers() map[string]float64 }); ok {
		for name, v := range f.finalLayers() {
			perLayer[name] = []float64{v}
		}
	}
	var hidden []string
	if u, ok := b.(interface{ unmeasured() []string }); ok {
		hidden = u.unmeasured()
	}
	for _, m := range layerMetrics {
		v := 0.0
		if vs := perLayer[m.name]; len(vs) > 0 {
			v = median(vs)
		}
		res.metrics[m.name] = metric{v, m.unit}
	}
	// The result line must carry every per-layer metric; a layer the
	// benchmark cannot see on this workload reads 0 there and is named here,
	// so that 0 is never taken for an idle layer.
	if len(hidden) > 0 {
		fmt.Printf("# unmeasured %s\n", strings.Join(hidden, " "))
	}
	if len(plain) > 0 && len(tracedWalls) > 0 {
		p := median(plain)
		res.metrics["trace_overhead_pct"] = metric{100 * (median(tracedWalls) - p) / p, "%"}
	}
	if err := os.MkdirAll(e.traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(e.traceDir, fmt.Sprintf("%s-seed%d.json", wl, e.seed))
	if err := l.writeChrome(path, fp); err != nil {
		return nil, err
	}
	fmt.Printf("# trace %s\n", path)
	return res, nil
}

// spanMetric names the per-layer metric a span's self time reports. The
// machine's run span is "sim.run"; with the sink calls it makes taken out,
// what remains is the simulator's (and its recorder's) own time.
func spanMetric(span string) string {
	if span == "sim.run" {
		return "sim.self_ms"
	}
	return span + "_ms"
}

// layerMetrics is every per-layer metric the traced run prints, on every
// workload. A layer that does no work in the benchmark's process on a
// workload reads 0; one that works out of sight (see unmeasured) also reads
// 0 and is listed on a "# unmeasured" line.
var layerMetrics = []struct{ name, unit string }{
	{"hls.compile_ms", "ms"},
	{"sim.build_ms", "ms"},
	{"sim.self_ms", "ms"},
	{"sim.ns_per_stepped_cycle", "ns"},
	{"sim.simcycles_per_s", "1/s"},
	{"sim.cycles", "count"},
	{"sim.stepped_cycles", "count"},
	{"sim.ff_jumps", "count"},
	{"obs.record_ms", "ms"},
	{"obs.events", "count"},
	{"obs.samples", "count"},
	{"sink.open_ms", "ms"},
	{"sink.event_ms", "ms"},
	{"sink.sample_ms", "ms"},
	{"sink.finalize_ms", "ms"},
	{"sink.ns_per_line", "ns"},
	{"spill_bytes_per_mcycle", "B/Mcycle"},
	{"vfs.fsyncs", "count"},
	{"vfs.renames", "count"},
	{"vfs.files_created", "count"},
	{"vfs.writefiles", "count"},
	{"vfs.segment_bytes", "B"},
	{"vfs.sidecar_bytes", "B"},
	{"vfs.write_ms", "ms"},
	{"vfs.fsync_ms", "ms"},
	{"vfs.writefile_ms", "ms"},
	{"vfs.rename_ms", "ms"},
	{"vfs.create_ms", "ms"},
	{"supervise.admit_wait_ms", "ms"},
	{"supervise.finish_lag_ms", "ms"},
	{"obs.load_ms", "ms"},
	{"scrub.scan_ms", "ms"},
	{"query.run_ms", "ms"},
	{"query.segments_read_pct", "%"},
	{"diff.compare_ms", "ms"},
	{"diff.segments_read_pct", "%"},
	{"host.control_ms", "ms"},
	{"host.read_trace_ms", "ms"},
	{"host.trace_records", "count"},
	{"trace.decode_ms", "ms"},
	{"oclmon.admit_ms", "ms"},
	{"oclmon.first_event_ms", "ms"},
	{"oclmon.sse_ms", "ms"},
	{"oclmon.sse_frames", "count"},
	{"oclmon.sse_bytes", "B"},
	{"oclmon.sse_shed_frames", "count"},
	{"oclmon.server_cpu_ms", "ms"},
	{"ledger.unaccounted_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// guard is the determinism guard: every op's exact counts must equal the
// first op's, and every run of a seed must reproduce the counts the first
// run of that seed stored in the checkout. The stored counts are keyed on
// the build (path names the build id), so a new build starts a fresh guard
// and a change that moves a count is measured, not refused; without a path
// only the in-run check applies.
type guard struct {
	path  string
	first map[string]int64
	saved bool
}

func (g *guard) check(c map[string]int64) error {
	if g.first == nil {
		g.first = c
		if g.path == "" {
			return nil
		}
		raw, err := os.ReadFile(g.path)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		var prev map[string]int64
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("determinism guard %s: %w", g.path, err)
		}
		g.saved = true
		return diffCounts("an earlier run of this seed", prev, c)
	}
	return diffCounts("the first op", g.first, c)
}

func diffCounts(what string, want, got map[string]int64) error {
	var bad []string
	for k, v := range want {
		if got[k] != v {
			bad = append(bad, fmt.Sprintf("%s=%d (want %d)", k, got[k], v))
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s=%d (absent)", k, v))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("determinism guard: exact counts differ from %s: %s", what, strings.Join(bad, ", "))
	}
	return nil
}

func (g *guard) save() error {
	if g.saved || g.first == nil || g.path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(g.first)
	if err != nil {
		return err
	}
	return os.WriteFile(g.path, raw, 0o644)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func vmHWM(statusPath string) float64 {
	raw, err := os.ReadFile(statusPath)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}
