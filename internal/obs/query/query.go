// Package query is the time-travel debugging front end over the simulator's
// observability record (DESIGN.md §14): an indexed query engine that answers
// event queries from a segmented spill's OBSFLAT3 containers, materializing
// only matching segments, and a breakpoint/watchpoint spec language
// (breaks.go) the simulator's re-execution engine halts on.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"oclfpga/internal/obs"
)

// Query is a parsed event query. Zero-value fields are wildcards; the cycle
// range is inclusive on both ends and matches by overlap (an event matches
// when [Start,End] intersects [From,To]).
type Query struct {
	Track string
	Name  string
	Kind  string
	From  int64
	To    int64
	// HasRange records whether cycles=[a,b] was given (From/To are only
	// meaningful when set).
	HasRange bool
}

// ParseQuery parses the space-separated k=v query syntax:
//
//	track=TRACK name=NAME kind=KIND cycles=[a,b]
//
// Every key is optional but at least one must be given; keys may appear at
// most once. Values may not be empty and may not contain spaces (the field
// separator).
func ParseQuery(s string) (Query, error) {
	var q Query
	seen := map[string]bool{}
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return q, fmt.Errorf("query: empty query")
	}
	for _, f := range fields {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return q, fmt.Errorf("query: %q: want key=value", f)
		}
		if val == "" {
			return q, fmt.Errorf("query: %q: empty value", f)
		}
		if seen[key] {
			return q, fmt.Errorf("query: duplicate key %q", key)
		}
		seen[key] = true
		switch key {
		case "track":
			q.Track = val
		case "name":
			q.Name = val
		case "kind":
			q.Kind = val
		case "cycles":
			body, ok := strings.CutPrefix(val, "[")
			if ok {
				body, ok = strings.CutSuffix(body, "]")
			}
			if !ok {
				return q, fmt.Errorf("query: cycles=%q: want cycles=[a,b]", val)
			}
			a, b, ok := strings.Cut(body, ",")
			if !ok {
				return q, fmt.Errorf("query: cycles=%q: want cycles=[a,b]", val)
			}
			var err error
			if q.From, err = strconv.ParseInt(a, 10, 64); err != nil {
				return q, fmt.Errorf("query: cycles=%q: bad lower bound: %v", val, err)
			}
			if q.To, err = strconv.ParseInt(b, 10, 64); err != nil {
				return q, fmt.Errorf("query: cycles=%q: bad upper bound: %v", val, err)
			}
			if q.From < 0 || q.To < q.From {
				return q, fmt.Errorf("query: cycles=%q: want 0 <= a <= b", val)
			}
			q.HasRange = true
		default:
			return q, fmt.Errorf("query: unknown key %q (want track, name, kind, or cycles)", key)
		}
	}
	return q, nil
}

// String renders the query back in the accepted syntax, canonically ordered —
// ParseQuery(q.String()) reproduces q (the fuzz invariant).
func (q Query) String() string {
	var parts []string
	if q.Track != "" {
		parts = append(parts, "track="+q.Track)
	}
	if q.Name != "" {
		parts = append(parts, "name="+q.Name)
	}
	if q.Kind != "" {
		parts = append(parts, "kind="+q.Kind)
	}
	if q.HasRange {
		parts = append(parts, fmt.Sprintf("cycles=[%d,%d]", q.From, q.To))
	}
	return strings.Join(parts, " ")
}

// Match reports whether the event satisfies every constraint.
func (q *Query) Match(e *obs.Event) bool {
	if q.Track != "" && e.Track != q.Track {
		return false
	}
	if q.Name != "" && e.Name != q.Name {
		return false
	}
	if q.Kind != "" && e.Kind != q.Kind {
		return false
	}
	if q.HasRange && (e.End < q.From || e.Start > q.To) {
		return false
	}
	return true
}

// mightMatch prunes a segment by its container index: zero events, an absent
// kind/track/name, or a disjoint cycle range all prove no event can match.
func (q *Query) mightMatch(idx *obs.SegIndex) bool {
	if idx.Events == 0 {
		return false
	}
	if q.Kind != "" && idx.Kinds[q.Kind] == 0 {
		return false
	}
	if q.Track != "" && !sortedContains(idx.Tracks, q.Track) {
		return false
	}
	if q.Name != "" && !sortedContains(idx.Names, q.Name) {
		return false
	}
	if q.HasRange && (idx.FirstCycle > q.To || idx.LastCycle < q.From) {
		return false
	}
	return true
}

func sortedContains(xs []string, s string) bool {
	i := sort.SearchStrings(xs, s)
	return i < len(xs) && xs[i] == s
}

// Result is one query's answer plus the pruning evidence: how many sealed
// segments existed and how many actually had to be read.
type Result struct {
	Dir           string      `json:"dir"`
	Query         string      `json:"query"`
	Design        string      `json:"design"`
	SegmentsTotal int         `json:"segmentsTotal"`
	SegmentsRead  int         `json:"segmentsRead"`
	Events        []obs.Event `json:"events"`
}

// Run answers the query from the spill directory through each segment's
// container, decoding and materializing records only from segments the
// container's index cannot rule out. Works on incomplete (crashed or
// in-flight) spills — the sealed prefix is queried. Results are
// byte-identical (as JSON) to ScanAll's full scan.
func Run(dir string, q Query) (*Result, error) { return run(dir, q, q.mightMatch) }

// ScanAll answers the query by decoding every sealed segment's container
// whole, with no index pruning — the correctness baseline (and the benchmark
// denominator) Run is compared against.
func ScanAll(dir string, q Query) (*Result, error) { return run(dir, q, nil) }

// run answers q from the segments keep admits (all with keep nil).
func run(dir string, q Query, keep func(*obs.SegIndex) bool) (*Result, error) {
	man, err := obs.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dir: dir, Query: q.String(), Design: man.Design,
		SegmentsTotal: len(man.Segments), Events: []obs.Event{},
	}
	for _, seg := range man.Segments {
		fl, err := obs.LoadSegFlat(dir, seg, keep)
		if err != nil {
			return nil, err
		}
		if fl == nil {
			continue
		}
		res.SegmentsRead++
		events := fl.FlatEvents()
		for i := range events {
			if q.Match(&events[i]) {
				res.Events = append(res.Events, events[i])
			}
		}
	}
	return res, nil
}

// Checkpoints returns the spill's rewind checkpoints in cycle order, answered
// through the index (only segments holding checkpoint events are read).
// Incomplete spills yield the sealed prefix's checkpoints — exactly what a
// mid-run rewind wants.
func Checkpoints(dir string) ([]obs.Checkpoint, error) {
	res, err := Run(dir, Query{Kind: obs.KindCheckpoint})
	if err != nil {
		return nil, err
	}
	return obs.ExtractCheckpoints(res.Events)
}
