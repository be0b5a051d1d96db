package diff

import (
	"fmt"

	"oclfpga/internal/obs"
	"oclfpga/internal/obs/analyze"
)

// SpillSide is one spill directory's half of a comparison: its attribution
// plus the pruning evidence (how many sealed segments existed and how many
// actually had to be opened).
type SpillSide struct {
	Dir           string
	Attr          *analyze.Attribution
	SegmentsTotal int
	SegmentsRead  int
}

// AttributeSpill attributes a completed segmented spill by walking each
// segment's OBSFLAT3 container — no Event materialization, no whole-run
// replay.
// Segments whose index proves they hold no unit-run, chan-stall, or
// line-fetch records are skipped. The result is identical to replaying the
// spill and running analyze.Attribute on the reconstructed timeline.
func AttributeSpill(dir string) (*SpillSide, error) {
	man, err := obs.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	if !man.Complete {
		return nil, fmt.Errorf("diff: spill %s is incomplete (crashed run?); recover it before diffing", dir)
	}
	ac := analyze.NewAccumulator(man.Design, man.EndCycle)
	side := &SpillSide{Dir: dir, SegmentsTotal: len(man.Segments)}
	for _, seg := range man.Segments {
		fl, err := obs.LoadSegFlat(dir, seg, attributable)
		if err != nil {
			return nil, err
		}
		if fl == nil {
			continue
		}
		side.SegmentsRead++
		ac.AddFlatLog(fl)
	}
	side.Attr = ac.Attribution()
	return side, nil
}

// attributable reports whether a segment's index admits unit-run,
// chan-stall or line-fetch records — the only ones attribution reads.
func attributable(idx *obs.SegIndex) bool {
	return idx.Kinds[obs.KindUnitRun]+idx.Kinds[obs.KindChanStall]+idx.Kinds[obs.KindLineFetch] > 0
}

// CompareSpills diffs spill directory B against baseline spill directory A
// through the indexed walk. Spills carry no replayed metrics series, so the
// report has no series section — the attribution deltas, critical-path shift,
// and verdicts are exactly Compare's over the two walked attributions.
func CompareSpills(dirA, dirB string, th Thresholds) (*Report, *SpillSide, *SpillSide, error) {
	a, err := AttributeSpill(dirA)
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := AttributeSpill(dirB)
	if err != nil {
		return nil, nil, nil, err
	}
	return Compare(a.Attr, b.Attr, nil, nil, th), a, b, nil
}
