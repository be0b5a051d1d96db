package analyze

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"oclfpga/internal/obs"
)

func testTimeline() *obs.Timeline {
	return &obs.Timeline{
		Design:   "design-x",
		EndCycle: 1000,
		Events: []obs.Event{
			{Kind: obs.KindLaunch, Track: "unit:consumer", Name: "launch", Start: 0, End: 0, Instant: true},
			{Kind: obs.KindUnitRun, Track: "unit:producer", Name: "run", Start: 1, End: 400},
			{Kind: obs.KindUnitRun, Track: "unit:consumer", Name: "run", Start: 1, End: 900},
			{Kind: obs.KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 10, End: 59, Detail: "unit=consumer"},
			{Kind: obs.KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 100, End: 149, Detail: "unit=consumer"},
			{Kind: obs.KindChanStall, Track: "chan:pipe", Name: "write-stall", Start: 30, End: 49, Detail: "unit=producer"},
			{Kind: obs.KindLineFetch, Track: "lsu:consumer/tbl#1", Name: "burst", Start: 200, End: 299},
			{Kind: obs.KindLineFetch, Track: "lsu:consumer/tbl#1", Name: "burst", Start: 250, End: 269},
		},
	}
}

func TestAttribute(t *testing.T) {
	a := Attribute(testTimeline())
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.TotalStallCycles != 50+50+20+100+20 {
		t.Fatalf("totalStallCycles = %d", a.TotalStallCycles)
	}
	if len(a.Rows) != 3 {
		t.Fatalf("rows = %+v", a.Rows)
	}
	// heaviest first: line-fetch 120, read-stall 100, write-stall 20
	if r := a.Rows[0]; r.Unit != "consumer" || r.Op != "line-fetch:burst" || r.Resource != "tbl#1" ||
		r.Cycles != 120 || r.Spans != 2 || r.MaxSpan != 100 {
		t.Fatalf("rows[0] = %+v", r)
	}
	if r := a.Rows[1]; r.Op != "read-stall" || r.Resource != "pipe" || r.Cycles != 100 || r.MaxSpan != 50 {
		t.Fatalf("rows[1] = %+v", r)
	}
	if r := a.Rows[2]; r.Unit != "producer" || r.Op != "write-stall" || r.Cycles != 20 {
		t.Fatalf("rows[2] = %+v", r)
	}

	// end-to-end critical path: 10-59 (50) + 100-149 (50) + 200-299 (100) =
	// 200 beats any chain using the overlapping 250-269 or 30-49 spans
	if a.CriticalCycles != 200 || len(a.CriticalPath) != 3 {
		t.Fatalf("critical = %d %+v", a.CriticalCycles, a.CriticalPath)
	}
	if a.CriticalPath[2].Op != "line-fetch:burst" || a.CriticalPath[0].Start != 10 {
		t.Fatalf("critical chain = %+v", a.CriticalPath)
	}

	// per-unit: producer has its lone 20-cycle span; consumer the 200 chain
	if len(a.Units) != 2 {
		t.Fatalf("units = %+v", a.Units)
	}
	if u := a.Units[0]; u.Unit != "consumer" || u.StallCycles != 200 || u.RunCycles != 900 {
		t.Fatalf("units[0] = %+v", u)
	}
	if u := a.Units[1]; u.Unit != "producer" || u.StallCycles != 20 || u.RunCycles != 400 {
		t.Fatalf("units[1] = %+v", u)
	}
}

// TestAttributeRecorderMatchesTimeline pins the flat read path: attributing
// straight off a recorder's fixed-width records must serialize identically to
// attributing the materialized timeline — both for hot-path records carrying
// the TmplUnit detail by ID and for replayed records whose detail was
// interned as a literal "unit=..." string.
func TestAttributeRecorderMatchesTimeline(t *testing.T) {
	build := func(viaReplay bool) *obs.Recorder {
		r := obs.NewRecorder("design-x", obs.Config{})
		if viaReplay {
			// The NDJSON-replay shape: string events through Add, details
			// pre-rendered.
			for _, e := range testTimeline().Events {
				r.Add(e)
			}
		} else {
			// The simulator's hot-path shape: interned IDs, lazy details.
			kRun, kStall, kFetch := r.Intern(obs.KindUnitRun), r.Intern(obs.KindChanStall), r.Intern(obs.KindLineFetch)
			pipe := r.Intern("chan:pipe")
			read, write := r.Intern("read-stall"), r.Intern("write-stall")
			prod, cons := r.Intern("producer"), r.Intern("consumer")
			r.InstantID(r.Intern(obs.KindLaunch), r.Intern("unit:consumer"), r.Intern("launch"), 0, obs.NoDetail)
			r.SpanID(kRun, r.Intern("unit:producer"), r.Intern("run"), 1, 400)
			r.SpanID(kRun, r.Intern("unit:consumer"), r.Intern("run"), 1, 900)
			r.SpanDetailID(kStall, pipe, read, 10, 59, obs.UnitDetail(cons))
			r.SpanDetailID(kStall, pipe, read, 100, 149, obs.UnitDetail(cons))
			r.SpanDetailID(kStall, pipe, write, 30, 49, obs.UnitDetail(prod))
			r.SpanID(kFetch, r.Intern("lsu:consumer/tbl#1"), r.Intern("burst"), 200, 299)
			r.SpanID(kFetch, r.Intern("lsu:consumer/tbl#1"), r.Intern("burst"), 250, 269)
		}
		r.FFJump(950, 999) // jumps must not contribute to attribution
		if err := r.Finalize(1000); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, viaReplay := range []bool{false, true} {
		r := build(viaReplay)
		var flat, mat bytes.Buffer
		if err := WriteJSON(&flat, AttributeRecorder(r)); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&mat, Attribute(r.Timeline())); err != nil {
			t.Fatal(err)
		}
		if flat.String() != mat.String() {
			t.Fatalf("viaReplay=%v: flat and materialized attributions diverge:\n%s\nvs\n%s",
				viaReplay, flat.String(), mat.String())
		}
		if err := AttributeRecorder(r).Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// And the flat path over the hot-path recorder must equal the reference
	// fixture analysis exactly.
	var a, b bytes.Buffer
	if err := WriteJSON(&a, AttributeRecorder(build(false))); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, Attribute(testTimeline())); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("flat attribution diverges from fixture:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestAttributeEmpty(t *testing.T) {
	a := Attribute(&obs.Timeline{Design: "d", EndCycle: 5})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 0 || a.CriticalCycles != 0 || a.TotalStallCycles != 0 {
		t.Fatalf("non-empty attribution from empty timeline: %+v", a)
	}
}

func TestLongestChainPicksWeight(t *testing.T) {
	// one long span vs many short ones that fit around it
	links := []ChainLink{
		{Op: "a", Start: 0, End: 99},
		{Op: "b", Start: 10, End: 19},
		{Op: "c", Start: 30, End: 39},
		{Op: "d", Start: 120, End: 129},
	}
	chain, w := longestChain(links)
	if w != 110 {
		t.Fatalf("weight = %d", w)
	}
	if len(chain) != 2 || chain[0].Op != "a" || chain[1].Op != "d" {
		t.Fatalf("chain = %+v", chain)
	}
}

// longestChain is the chain solver as it was before attribute sorted the
// links once: it sorts its own copy on every call. It is the reference
// sortedChain and attribute are held to.
func longestChain(links []ChainLink) ([]ChainLink, int64) {
	if len(links) == 0 {
		return nil, 0
	}
	ls := append([]ChainLink(nil), links...)
	sort.Slice(ls, func(i, j int) bool {
		a, b := ls[i], ls[j]
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Resource < b.Resource
	})
	n := len(ls)
	// p[i]: number of spans (prefix length) ending strictly before ls[i]
	// starts — the chain i can extend.
	p := make([]int, n)
	for i := range ls {
		p[i] = sort.Search(n, func(j int) bool { return ls[j].End >= ls[i].Start })
	}
	best := make([]int64, n+1)
	took := make([]bool, n+1)
	for i := 1; i <= n; i++ {
		take := ls[i-1].cycles() + best[p[i-1]]
		if take > best[i-1] {
			best[i] = take
			took[i] = true
		} else {
			best[i] = best[i-1]
		}
	}
	var chain []ChainLink
	for i := n; i > 0; {
		if !took[i] {
			i--
			continue
		}
		chain = append(chain, ls[i-1])
		i = p[i-1]
	}
	// reverse into chronological order
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, best[n]
}

// attributeRef is attribute as it was before the links were sorted once:
// every unit's chain and the critical path come from longestChain.
func attributeRef(design string, endCycle int64, links []ChainLink, runCycles map[string]int64) *Attribution {
	a := &Attribution{Design: design, EndCycle: endCycle}
	// A modeled latency window can outlive the run: a line fetch still in
	// flight at the final cycle records its scheduled completion, which lands
	// past EndCycle. Attribution counts in-run stall cycles only, so spans
	// are clamped to the run and anything wholly past it is dropped
	// (Validate holds every chain link to [0, EndCycle]).
	kept := make([]ChainLink, 0, len(links))
	for _, l := range links {
		if l.Start > endCycle {
			continue
		}
		if l.End > endCycle {
			l.End = endCycle
		}
		kept = append(kept, l)
	}
	links = kept
	rows := map[[3]string]*Row{}
	for _, l := range links {
		key := [3]string{l.Unit, l.Op, l.Resource}
		r := rows[key]
		if r == nil {
			r = &Row{Unit: l.Unit, Op: l.Op, Resource: l.Resource}
			rows[key] = r
		}
		w := l.cycles()
		r.Cycles += w
		r.Spans++
		if w > r.MaxSpan {
			r.MaxSpan = w
		}
		a.TotalStallCycles += w
	}
	for _, r := range rows {
		a.Rows = append(a.Rows, *r)
	}
	sortRows(a.Rows)

	// per-unit chains over each unit's own spans
	byUnit := map[string][]ChainLink{}
	for _, l := range links {
		byUnit[l.Unit] = append(byUnit[l.Unit], l)
	}
	var unitNames []string
	for u := range byUnit {
		unitNames = append(unitNames, u)
	}
	for u := range runCycles {
		if _, seen := byUnit[u]; !seen {
			unitNames = append(unitNames, u)
		}
	}
	sort.Strings(unitNames)
	for _, u := range unitNames {
		chain, w := longestChain(byUnit[u])
		a.Units = append(a.Units, UnitPath{
			Unit: u, RunCycles: runCycles[u], StallCycles: w, Chain: chain,
		})
	}

	a.CriticalPath, a.CriticalCycles = longestChain(links)
	return a
}

// TestAttributeMatchesReference holds attribute, which sorts the links once
// and chains each unit over its sorted subsequence, to attributeRef on
// random link sets dense in ties, duplicates and spans clamped at the end.
func TestAttributeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(n)) }
	for trial := 0; trial < 500; trial++ {
		endCycle := int64(20 + rng.Intn(200))
		links := make([]ChainLink, rng.Intn(60))
		for i := range links {
			start := rng.Int63n(endCycle + 20)
			links[i] = ChainLink{
				Unit: pick("u", 4), Op: pick("op", 3), Resource: pick("r", 3),
				Start: start, End: start + rng.Int63n(30),
			}
		}
		runCycles := map[string]int64{}
		for i := rng.Intn(6); i > 0; i-- {
			runCycles[pick("u", 6)] += rng.Int63n(100)
		}
		in := append([]ChainLink(nil), links...)
		got, want := attribute("d", endCycle, links, runCycles), attributeRef("d", endCycle, links, runCycles)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: attribute differs from the reference\n got  %+v\n want %+v", trial, got, want)
		}
		if !slices.Equal(links, in) {
			t.Fatalf("trial %d: attribute reordered its input", trial)
		}
	}
}

func TestJSONRoundTripByteStable(t *testing.T) {
	a := Attribute(testTimeline())
	var b1 bytes.Buffer
	if err := WriteJSON(&b1, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := WriteJSON(&b2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("re-encoded attribution differs byte-wise")
	}
}

func TestValidateRejects(t *testing.T) {
	a := Attribute(testTimeline())
	a.TotalStallCycles++
	if err := a.Validate(); err == nil {
		t.Fatal("bad total accepted")
	}
	a = Attribute(testTimeline())
	a.Rows[0], a.Rows[2] = a.Rows[2], a.Rows[0]
	if err := a.Validate(); err == nil {
		t.Fatal("unsorted rows accepted")
	}
	a = Attribute(testTimeline())
	if len(a.CriticalPath) >= 2 {
		a.CriticalPath[1].Start = a.CriticalPath[0].End // overlap
		if err := a.Validate(); err == nil {
			t.Fatal("overlapping chain accepted")
		}
	}
}

func TestFolded(t *testing.T) {
	a := Attribute(testTimeline())
	var b bytes.Buffer
	if err := WriteFolded(&b, a); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("folded lines: %q", lines)
	}
	if lines[0] != "consumer;line-fetch:burst;tbl#1 120" {
		t.Fatalf("folded[0] = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "producer;write-stall;pipe ") {
		t.Fatalf("folded[2] = %q", lines[2])
	}
}

func TestPprofRoundTrip(t *testing.T) {
	a := Attribute(testTimeline())
	var b bytes.Buffer
	if err := WritePprof(&b, a); err != nil {
		t.Fatal(err)
	}
	sum, err := CheckPprof(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != len(a.Rows) {
		t.Fatalf("samples = %d, want %d", sum.Samples, len(a.Rows))
	}
	if sum.TotalValue != a.TotalStallCycles {
		t.Fatalf("total = %d, want %d", sum.TotalValue, a.TotalStallCycles)
	}
	if sum.SampleTypes != 2 {
		t.Fatalf("sample types = %d", sum.SampleTypes)
	}
	// 3 rows over frames: consumer, producer, line-fetch:burst, read-stall,
	// write-stall, tbl#1, pipe = 7 distinct frames
	if sum.Locations != 7 || sum.Functions != 7 {
		t.Fatalf("locations/functions = %d/%d", sum.Locations, sum.Functions)
	}
	if _, err := CheckPprof(b.Bytes()[:len(b.Bytes())/2]); err == nil {
		t.Fatal("truncated profile accepted")
	}
}

func TestCheckPprofRejectsGarbage(t *testing.T) {
	if _, err := CheckPprof([]byte("not a profile")); err == nil {
		t.Fatal("garbage accepted")
	}
}
