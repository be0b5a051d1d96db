// benchjson converts `go test -bench` output on stdin into a JSON document
// on stdout: one entry per benchmark name, each holding every recorded run
// (-count N yields N runs) with its ns/op and all custom metrics. scripts/
// bench.sh pipes through it to produce the repo's BENCH_*.json trajectory
// files.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

type run map[string]float64

// fingerprint identifies the host a benchmark document was recorded on.
// Comparing numbers across different machines (or Go toolchains) is
// meaningless, so every document is stamped and -baseline warns on mismatch.
type fingerprint struct {
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpuModel,omitempty"`
}

type doc struct {
	Goos       string           `json:"goos,omitempty"`
	Goarch     string           `json:"goarch,omitempty"`
	Pkg        string           `json:"pkg,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Host       *fingerprint     `json:"host,omitempty"`
	Benchmarks map[string][]run `json:"benchmarks"`
	// Derived convenience metrics (e.g. fast-forward speedup) keyed by name.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// hostFingerprint stamps the current host. The CPU model comes from
// /proc/cpuinfo when readable (Linux); elsewhere the field is empty and the
// comparison falls back to toolchain + parallelism.
func hostFingerprint() *fingerprint {
	fp := &fingerprint{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// checkBaseline compares the current host against the fingerprint of an
// earlier benchmark document. A mismatch is a warning, not an error: numbers
// still serialize, they just should not be read as a trajectory.
func checkBaseline(path string, cur *fingerprint) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", path, err)
		return
	}
	var base doc
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", path, err)
		return
	}
	switch {
	case base.Host == nil:
		fmt.Fprintf(os.Stderr, "benchjson: warning: baseline %s has no host fingerprint; comparison is unreliable\n", path)
	case *base.Host != *cur:
		fmt.Fprintf(os.Stderr, "benchjson: warning: baseline %s was recorded on a different host:\n  baseline: %s, GOMAXPROCS %d, %q\n  current:  %s, GOMAXPROCS %d, %q\n",
			path, base.Host.GoVersion, base.Host.GOMAXPROCS, base.Host.CPUModel,
			cur.GoVersion, cur.GOMAXPROCS, cur.CPUModel)
	}
}

var flagBaseline = flag.String("baseline", "", "earlier benchjson document to fingerprint-check against (warn on host mismatch)")

var flagDiff = flag.Bool("diff", false, "compare two benchjson documents (OLD.json NEW.json as arguments) and print a metric delta table instead of reading stdin")

var flagFleet = flag.String("fleet", "", "oclstorm report whose benchmarks and derived metrics merge into the output")

// gate is one "-gate name<=value" (or name>=value) assertion against the
// final derived-metric map. Gates make the bench pipeline a regression test:
// a missing metric or a violated bound fails the run.
type gate struct {
	name string
	op   string // "<=" or ">="
	val  float64
}

type gateList []gate

func (g *gateList) String() string { return fmt.Sprint(*g) }

func (g *gateList) Set(s string) error {
	for _, op := range []string{"<=", ">="} {
		if name, v, ok := strings.Cut(s, op); ok {
			val, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return fmt.Errorf("gate %q: %v", s, err)
			}
			*g = append(*g, gate{name: strings.TrimSpace(name), op: op, val: val})
			return nil
		}
	}
	return fmt.Errorf("gate %q: want name<=value or name>=value", s)
}

var flagGates gateList

// mergeFleet folds an oclstorm report into the document: its benchmark
// entries are appended and its derived metrics (fleet-admit-p99-ms,
// fleet-recovery-ms, ...) join the derived map, so one BENCH document carries
// both the micro-benchmarks and the fleet's measured behavior.
func mergeFleet(d *doc, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var fd doc
	if err := json.Unmarshal(raw, &fd); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	for name, rs := range fd.Benchmarks {
		d.Benchmarks[name] = append(d.Benchmarks[name], rs...)
	}
	if len(fd.Derived) > 0 && d.Derived == nil {
		d.Derived = map[string]float64{}
	}
	for name, v := range fd.Derived {
		d.Derived[name] = v
	}
	return nil
}

// readDoc loads one benchjson document from disk.
func readDoc(path string) (*doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &d, nil
}

// diffDocs is the -diff mode: a human-readable delta table between two
// benchjson documents — every benchmark's mean ns/op and every derived metric
// appearing in either, with the percent change. A host-fingerprint mismatch
// is warned inline at the top: the deltas still print, they just should not
// be read as a regression signal across different machines or toolchains.
func diffDocs(w io.Writer, oldPath, newPath string) error {
	od, err := readDoc(oldPath)
	if err != nil {
		return err
	}
	nd, err := readDoc(newPath)
	if err != nil {
		return err
	}
	switch {
	case od.Host == nil || nd.Host == nil:
		fmt.Fprintln(w, "! host fingerprint missing from one side; deltas may compare different machines")
	case *od.Host != *nd.Host:
		fmt.Fprintf(w, "! host mismatch: old %s/GOMAXPROCS %d/%q vs new %s/GOMAXPROCS %d/%q — deltas unreliable\n",
			od.Host.GoVersion, od.Host.GOMAXPROCS, od.Host.CPUModel,
			nd.Host.GoVersion, nd.Host.GOMAXPROCS, nd.Host.CPUModel)
	}

	cell := func(v float64, ok bool) string {
		if !ok {
			return "-"
		}
		return strconv.FormatFloat(v, 'g', 6, 64)
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\told\tnew\tchange\n")
	row := func(name string, ov float64, ook bool, nv float64, nok bool) {
		change := "-"
		if ook && nok && ov != 0 {
			change = fmt.Sprintf("%+.1f%%", (nv-ov)/ov*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", name, cell(ov, ook), cell(nv, nok), change)
	}
	names := map[string]bool{}
	for n := range od.Benchmarks {
		names[n] = true
	}
	for n := range nd.Benchmarks {
		names[n] = true
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		ov := mean(od.Benchmarks[n], "ns/op")
		nv := mean(nd.Benchmarks[n], "ns/op")
		row(n+" ns/op", ov, ov > 0, nv, nv > 0)
	}
	names = map[string]bool{}
	for n := range od.Derived {
		names[n] = true
	}
	for n := range nd.Derived {
		names[n] = true
	}
	sorted = sorted[:0]
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		ov, ook := od.Derived[n]
		nv, nok := nd.Derived[n]
		row("derived:"+n, ov, ook, nv, nok)
	}
	return tw.Flush()
}

func main() {
	flag.Var(&flagGates, "gate", "derived-metric bound to enforce, e.g. 'fleet-recovery-ms<=15000' (repeatable; exit 1 on violation or missing metric)")
	flag.Parse()
	if *flagDiff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff takes exactly two arguments: OLD.json NEW.json")
			os.Exit(2)
		}
		if err := diffDocs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	d := doc{Benchmarks: map[string][]run{}, Host: hostFingerprint()}
	if *flagBaseline != "" {
		checkBaseline(*flagBaseline, d.Host)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			d.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			d.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			d.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			d.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		// Strip the -GOMAXPROCS suffix so counts aggregate under one name.
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := run{}
		if iters, err := strconv.ParseFloat(f[1], 64); err == nil {
			r["iterations"] = iters
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			r[f[i+1]] = v
		}
		d.Benchmarks[name] = append(d.Benchmarks[name], r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// The headline derived metrics: simulate-phase throughput with the
	// fast-forward path over the forced slow path, and the observability
	// recorder's throughput cost relative to the unobserved fast path.
	plainRuns := d.Benchmarks["BenchmarkSimThroughput/Simulate"]
	obsRuns := d.Benchmarks["BenchmarkSimThroughput/SimulateObserved"]
	fast := mean(plainRuns, "simcycles/s")
	slow := mean(d.Benchmarks["BenchmarkSimThroughput/SimulateSlowPath"], "simcycles/s")
	obsd := mean(obsRuns, "simcycles/s")
	supd := mean(d.Benchmarks["BenchmarkSimThroughput/SimulateSupervised"], "simcycles/s")
	derive := func(name string, v float64) {
		if d.Derived == nil {
			d.Derived = map[string]float64{}
		}
		d.Derived[name] = v
	}
	if fast > 0 {
		if slow > 0 {
			derive("fast-forward-speedup-x", fast/slow)
		}
		if obsd > 0 {
			derive("observe-overhead-pct", (1-obsd/fast)*100)
		}
		if supd > 0 {
			// The supervision layer's throughput cost: sliced RunFor with
			// budget/watchdog accounting vs one uninterrupted Run.
			derive("supervise-overhead-pct", (1-supd/fast)*100)
		}
		// Recording cost in memory terms, net of the plain run: bytes
		// allocated per simulated cycle and extra allocations per run. The
		// simulated-cycle count per op is recovered from the observed runs'
		// throughput times wall time.
		if obsd > 0 {
			if cycPerOp := obsd * mean(obsRuns, "ns/op") / 1e9; cycPerOp > 0 {
				if obsB, plainB := mean(obsRuns, "B/op"), mean(plainRuns, "B/op"); obsB > 0 && plainB > 0 {
					derive("obs-B-per-simcycle", (obsB-plainB)/cycPerOp)
				}
			}
			if obsA, plainA := mean(obsRuns, "allocs/op"), mean(plainRuns, "allocs/op"); obsA > 0 && plainA > 0 {
				derive("observe-extra-allocs-per-op", obsA-plainA)
			}
		}
	}
	// The checkpoint grid's throughput cost over the plain observed run: same
	// recorder, same sampling, plus a state hash every grid cycle. The
	// benchmark measures it as a paired per-op ratio (both arms interleaved
	// within each op, so host drift cancels) and reports the per-count
	// median; across counts the median is taken again — noise contamination
	// is one-sided (a loaded host only inflates the ratio), so the median
	// discards a bad count where a mean would smear it into the gate.
	if ckpt := d.Benchmarks["BenchmarkSimThroughput/SimulateCheckpointed"]; len(ckpt) > 0 {
		if v, ok := median(ckpt, "overhead-pct"); ok {
			derive("checkpoint-overhead-pct", v)
		}
		// The same paired bench times a plain arm, so the recorder overhead
		// gets the low-noise paired estimate too, replacing the mean-based
		// ratio above (which stays as the fallback for older documents that
		// predate the paired bench).
		if v, ok := median(ckpt, "obs-overhead-pct"); ok {
			derive("observe-overhead-pct", v)
		}
	}
	// The spill read path's checksum verification cost: loading a sealed
	// segmented spill with CRC32C verification against the manifest vs the
	// same load with checksums skipped, measured paired like the checkpoint
	// overhead above (both arms interleaved per op, median of medians).
	if sl := d.Benchmarks["BenchmarkSpillLoad"]; len(sl) > 0 {
		if v, ok := median(sl, "verify-overhead-pct"); ok {
			derive("scrub-verify-overhead-pct", v)
		}
	}
	// The idle-fixpoint rule's payoff on an instrumented design: the
	// stall-monitor matmul stepped every cycle over the same run with
	// fast-forward, paired per op like the overheads above.
	if inst := d.Benchmarks["BenchmarkInstrumentedFF"]; len(inst) > 0 {
		if v, ok := median(inst, "speedup-x"); ok {
			derive("instrumented-ff-speedup-x", v)
		}
	}
	// The indexed query engine against a full scan of the same spill.
	if idx, scan := mean(d.Benchmarks["BenchmarkQuerySpill/Indexed"], "ns/op"),
		mean(d.Benchmarks["BenchmarkQuerySpill/FullScan"], "ns/op"); idx > 0 && scan > 0 {
		derive("query-speedup-x", scan/idx)
	}
	// The indexed cross-run spill diff against fully replaying both spills.
	if idx, full := mean(d.Benchmarks["BenchmarkDiffSpill/Indexed"], "ns/op"),
		mean(d.Benchmarks["BenchmarkDiffSpill/FullReplay"], "ns/op"); idx > 0 && full > 0 {
		derive("diff-spill-speedup-x", full/idx)
	}

	if *flagFleet != "" {
		if err := mergeFleet(&d, *flagFleet); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: fleet:", err)
			os.Exit(1)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// Gates run last, against the fully merged derived map, so a violated
	// bound still leaves the document on stdout for inspection.
	failed := false
	for _, g := range flagGates {
		v, ok := d.Derived[g.name]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "benchjson: gate %s%s%g: metric missing from derived map\n", g.name, g.op, g.val)
			failed = true
		case g.op == "<=" && v > g.val, g.op == ">=" && v < g.val:
			fmt.Fprintf(os.Stderr, "benchjson: gate FAILED: %s = %g, want %s %g\n", g.name, v, g.op, g.val)
			failed = true
		default:
			fmt.Fprintf(os.Stderr, "benchjson: gate ok: %s = %g (%s %g)\n", g.name, v, g.op, g.val)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func median(rs []run, key string) (float64, bool) {
	var vs []float64
	for _, r := range rs {
		if v, ok := r[key]; ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0, false
	}
	sort.Float64s(vs)
	return vs[len(vs)/2], true
}

func mean(rs []run, key string) float64 {
	var sum float64
	var n int
	for _, r := range rs {
		if v, ok := r[key]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
