// Package analyze turns a recorded observability timeline into the
// attribution answers the paper's profiling framework exists for: which
// channel read (or write, or memory fetch) is stalling which kernel, for how
// many cycles, and which chain of stalls dominates the run end to end. It
// consumes only the obs.Timeline data model — the analysis layer stays
// decoupled from the recording primitives — and exports the results as
// structured JSON, folded stacks, and pprof profile.proto so standard
// flamegraph tooling renders the stall breakdown.
package analyze

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"oclfpga/internal/obs"
)

// Row is one attribution bucket: all stall time a compute unit spent blocked
// on one operation against one resource.
type Row struct {
	// Unit is the compute unit charged with the stall (the unit whose
	// refused attempt opened the span).
	Unit string `json:"unit"`
	// Op is the blocked operation: "read-stall" / "write-stall" for channel
	// endpoints, "line-fetch:<lsu-kind>" for DRAM line fetches.
	Op string `json:"op"`
	// Resource is what the op was blocked on: the channel name, or the
	// LSU site ("array#site").
	Resource string `json:"resource"`
	// Cycles is the summed span length, Spans the span count, MaxSpan the
	// longest single span.
	Cycles  int64 `json:"cycles"`
	Spans   int64 `json:"spans"`
	MaxSpan int64 `json:"maxSpan"`
}

// ChainLink is one span on a critical chain.
type ChainLink struct {
	Unit     string `json:"unit"`
	Op       string `json:"op"`
	Resource string `json:"resource"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
}

func (l ChainLink) cycles() int64 { return l.End - l.Start + 1 }

// UnitPath is one unit's stall summary: total run time, and the longest
// chain of non-overlapping stall spans within it — the unit's serialized
// stall backbone. StallCycles is the chain's weight, so StallCycles over
// RunCycles bounds how much of the unit's wall time provably went to the
// chained stalls alone.
type UnitPath struct {
	Unit        string      `json:"unit"`
	RunCycles   int64       `json:"runCycles"`
	StallCycles int64       `json:"stallCycles"`
	Chain       []ChainLink `json:"chain"`
}

// Attribution is the full analysis of one timeline.
type Attribution struct {
	Design   string `json:"design"`
	EndCycle int64  `json:"endCycle"`
	// TotalStallCycles sums every attributed span (overlaps counted once
	// per span, not deduplicated — it is the work lost, not wall time).
	TotalStallCycles int64 `json:"totalStallCycles"`
	// Rows is the per-(unit, op, resource) aggregation, heaviest first.
	Rows []Row `json:"rows"`
	// Units holds each unit's critical stall chain, sorted by unit name.
	Units []UnitPath `json:"units,omitempty"`
	// CriticalPath is the end-to-end longest weighted chain of
	// non-overlapping stall spans across all units — the dominant
	// serialized stall sequence of the whole run.
	CriticalPath []ChainLink `json:"criticalPath,omitempty"`
	// CriticalCycles is the critical path's total weight.
	CriticalCycles int64 `json:"criticalCycles"`
}

// stallLink extracts the attribution key of a stall-ish event; ok is false
// for event kinds that carry no stall attribution.
func stallLink(e obs.Event) (ChainLink, bool) {
	switch e.Kind {
	case obs.KindChanStall:
		l := ChainLink{
			Op:       e.Name,
			Resource: strings.TrimPrefix(e.Track, "chan:"),
			Start:    e.Start, End: e.End,
		}
		if u, ok := strings.CutPrefix(e.Detail, "unit="); ok {
			l.Unit = u
		}
		return l, true
	case obs.KindLineFetch:
		// track is "lsu:<unit>/<array>#<site>"
		rest := strings.TrimPrefix(e.Track, "lsu:")
		unit, site, ok := strings.Cut(rest, "/")
		if !ok {
			site = rest
			unit = ""
		}
		return ChainLink{
			Unit: unit, Op: "line-fetch:" + e.Name, Resource: site,
			Start: e.Start, End: e.End,
		}, true
	}
	return ChainLink{}, false
}

// Attribute analyzes a finalized timeline: per-(unit, op, resource) stall
// aggregation plus per-unit and end-to-end critical chains.
func Attribute(t *obs.Timeline) *Attribution {
	var links []ChainLink
	runCycles := map[string]int64{}
	for _, e := range t.Events {
		if e.Kind == obs.KindUnitRun {
			runCycles[strings.TrimPrefix(e.Track, "unit:")] += e.End - e.Start + 1
			continue
		}
		if l, ok := stallLink(e); ok {
			links = append(links, l)
		}
	}
	return attribute(t.Design, t.EndCycle, links, runCycles)
}

// AttributeRecorder analyzes a finalized recorder straight off its flat
// records — the zero-materialization read path: the recorder's flat log is
// folded into an Accumulator exactly as a spill segment's container is, so no
// Event values are built. The result is identical to Attribute(r.Timeline()).
func AttributeRecorder(r *obs.Recorder) *Attribution {
	ac := NewAccumulator(r.Design(), r.EndCycle())
	ac.AddFlatLog(r.FlatLog())
	return ac.Attribution()
}

// attribute is the shared aggregation backend: rows, per-unit chains, and the
// end-to-end critical path from an extracted link set.
func attribute(design string, endCycle int64, links []ChainLink, runCycles map[string]int64) *Attribution {
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
	perUnit := map[string]int{}
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
		perUnit[l.Unit]++
	}
	for _, r := range rows {
		a.Rows = append(a.Rows, *r)
	}
	sortRows(a.Rows)

	// Every chain runs over links in chainOrder, sorted once here: each
	// unit's chain over its own subsequence, which stays sorted.
	slices.SortFunc(links, chainOrder)
	byUnit := make(map[string][]ChainLink, len(perUnit))
	for _, l := range links {
		us := byUnit[l.Unit]
		if us == nil {
			us = make([]ChainLink, 0, perUnit[l.Unit])
		}
		byUnit[l.Unit] = append(us, l)
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
		chain, w := sortedChain(byUnit[u])
		a.Units = append(a.Units, UnitPath{
			Unit: u, RunCycles: runCycles[u], StallCycles: w, Chain: chain,
		})
	}

	a.CriticalPath, a.CriticalCycles = sortedChain(links)
	return a
}

// sortRows orders attribution rows heaviest-first, with a full lexicographic
// tiebreak so identical timelines always serialize identically.
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rowLess(rows[i], rows[j]) })
}

func rowLess(a, b Row) bool {
	if a.Cycles != b.Cycles {
		return a.Cycles > b.Cycles
	}
	if a.Unit != b.Unit {
		return a.Unit < b.Unit
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	return a.Resource < b.Resource
}

// chainOrder orders spans by end, then start, unit, op and resource — the
// order sortedChain needs, total so identical inputs chain identically.
func chainOrder(a, b ChainLink) int {
	switch {
	case a.End != b.End:
		return cmp.Compare(a.End, b.End)
	case a.Start != b.Start:
		return cmp.Compare(a.Start, b.Start)
	case a.Unit != b.Unit:
		return strings.Compare(a.Unit, b.Unit)
	case a.Op != b.Op:
		return strings.Compare(a.Op, b.Op)
	}
	return strings.Compare(a.Resource, b.Resource)
}

// sortedChain solves weighted interval scheduling over spans in chainOrder —
// the longest (by summed cycle weight) chain of strictly non-overlapping
// spans, i.e. the heaviest path through the DAG whose edges connect span i to
// any span starting after i ends. O(n log n); fully deterministic (ties
// resolve toward the earlier-sorted span being skipped).
func sortedChain(ls []ChainLink) ([]ChainLink, int64) {
	if len(ls) == 0 {
		return nil, 0
	}
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
	// Walk the taken spans back from the end twice: once to size the chain,
	// once to fill it in chronological order.
	m := 0
	for i := n; i > 0; {
		if took[i] {
			m++
			i = p[i-1]
		} else {
			i--
		}
	}
	if m == 0 {
		return nil, best[n]
	}
	chain := make([]ChainLink, m)
	for i := n; i > 0; {
		if took[i] {
			m--
			chain[m] = ls[i-1]
			i = p[i-1]
		} else {
			i--
		}
	}
	return chain, best[n]
}

// WriteJSON serializes the attribution as indented JSON; deterministic for
// identical attributions, which is the byte-stability contract obscheck
// gates on.
func WriteJSON(w io.Writer, a *Attribution) error {
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ReadJSON parses an attribution written by WriteJSON.
func ReadJSON(r io.Reader) (*Attribution, error) {
	var a Attribution
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("analyze: attribution: %w", err)
	}
	return &a, nil
}

// Validate checks an attribution's internal consistency: ordered rows,
// consistent totals, and chains that are chronological, non-overlapping,
// in-range, and correctly weighted.
func (a *Attribution) Validate() error {
	var total int64
	for i, r := range a.Rows {
		if r.Cycles < 0 || r.Spans <= 0 || r.MaxSpan <= 0 || r.MaxSpan > r.Cycles {
			return fmt.Errorf("analyze: row[%d] %s/%s/%s: bad counts %d/%d/%d",
				i, r.Unit, r.Op, r.Resource, r.Cycles, r.Spans, r.MaxSpan)
		}
		if i > 0 && rowLess(r, a.Rows[i-1]) {
			return fmt.Errorf("analyze: row[%d] out of order", i)
		}
		total += r.Cycles
	}
	if total != a.TotalStallCycles {
		return fmt.Errorf("analyze: totalStallCycles %d != row sum %d", a.TotalStallCycles, total)
	}
	if w, err := checkChain("criticalPath", a.CriticalPath, a.EndCycle); err != nil {
		return err
	} else if w != a.CriticalCycles {
		return fmt.Errorf("analyze: criticalCycles %d != chain weight %d", a.CriticalCycles, w)
	}
	for _, u := range a.Units {
		if w, err := checkChain("unit "+u.Unit, u.Chain, a.EndCycle); err != nil {
			return err
		} else if w != u.StallCycles {
			return fmt.Errorf("analyze: unit %s stallCycles %d != chain weight %d", u.Unit, u.StallCycles, w)
		}
	}
	return nil
}

func checkChain(where string, chain []ChainLink, endCycle int64) (int64, error) {
	var w int64
	for i, l := range chain {
		if l.Start < 0 || l.End < l.Start || l.End > endCycle {
			return 0, fmt.Errorf("analyze: %s link[%d]: bad interval [%d,%d]", where, i, l.Start, l.End)
		}
		if i > 0 && l.Start <= chain[i-1].End {
			return 0, fmt.Errorf("analyze: %s link[%d] overlaps previous (start %d <= end %d)",
				where, i, l.Start, chain[i-1].End)
		}
		w += l.cycles()
	}
	return w, nil
}
