package analyze

import (
	"slices"
	"strings"

	"oclfpga/internal/obs"
)

// Accumulator extracts attribution links incrementally — one flat log or
// event batch at a time — and finalizes into the same Attribution the
// whole-timeline entry points produce. It exists for consumers that walk a
// segmented spill segment by segment (the diff engine's spill walker): a
// multi-gigabyte spill attributes in bounded memory per segment, without
// ever materializing the run's Events, and feeding the same records in any
// segment partition yields the identical Attribution (the aggregation
// backend is order-independent).
type Accumulator struct {
	design    string
	endCycle  int64
	links     []ChainLink
	runCycles map[string]int64
}

// NewAccumulator starts an accumulation for one run's identity (the spill
// manifest's design name and final cycle).
func NewAccumulator(design string, endCycle int64) *Accumulator {
	return &Accumulator{design: design, endCycle: endCycle, runCycles: map[string]int64{}}
}

// AddFlatLog folds one decoded flat log (typically a spill segment's
// container, or a recorder's FlatLog for AttributeRecorder) into the
// accumulation: kinds match by interned ID against the log's own string
// table, the chan-stall unit comes straight from the TmplUnit argument
// (falling back to parsing the "unit=" detail of replayed records that
// interned it as a literal), and no Event values are built.
func (ac *Accumulator) AddFlatLog(l *obs.FlatLog) {
	// Resolve the three attributable kinds against this log's table; ID 0 is
	// the empty string, so 0 doubles as "kind absent from this segment".
	var kRun, kChan, kFetch obs.ID
	for i, s := range l.Strings {
		switch s {
		case obs.KindUnitRun:
			kRun = obs.ID(i)
		case obs.KindChanStall:
			kChan = obs.ID(i)
		case obs.KindLineFetch:
			kFetch = obs.ID(i)
		}
	}
	fetchOps := map[obs.ID]string{}
	ac.links = slices.Grow(ac.links, len(l.Records)) // at most one link a record
	for _, f := range l.Records {
		switch {
		case kRun != 0 && f.Kind == kRun:
			ac.runCycles[strings.TrimPrefix(l.Strings[f.Track], "unit:")] += f.End - f.Start + 1
		case kChan != 0 && f.Kind == kChan:
			lnk := ChainLink{
				Op:       l.Strings[f.Name],
				Resource: strings.TrimPrefix(l.Strings[f.Track], "chan:"),
				Start:    f.Start, End: f.End,
			}
			if f.Tmpl == obs.TmplUnit {
				lnk.Unit = l.Strings[f.Arg]
			} else if u, ok := strings.CutPrefix(l.Detail(f), "unit="); ok {
				lnk.Unit = u
			}
			ac.links = append(ac.links, lnk)
		case kFetch != 0 && f.Kind == kFetch:
			rest := strings.TrimPrefix(l.Strings[f.Track], "lsu:")
			unit, site, ok := strings.Cut(rest, "/")
			if !ok {
				site = rest
				unit = ""
			}
			op := fetchOps[f.Name]
			if op == "" {
				op = "line-fetch:" + l.Strings[f.Name]
				fetchOps[f.Name] = op
			}
			ac.links = append(ac.links, ChainLink{
				Unit: unit, Op: op, Resource: site, Start: f.Start, End: f.End,
			})
		}
	}
}

// Attribution finalizes the accumulation. The accumulator may keep being fed
// afterwards; each call aggregates everything added so far.
func (ac *Accumulator) Attribution() *Attribution {
	return attribute(ac.design, ac.endCycle, ac.links, ac.runCycles)
}
