// Package scrub is the spill durability engine (DESIGN.md §16): it walks a
// segmented spill directory, classifies every kind of disk damage the chaos
// suite can inject — bit rot, truncation, torn renames, missing or stale
// sidecars — and repairs what the durable record proves repairable. Derived
// damage (sidecars, orphans) is repaired in place; segment-body damage is
// repaired by deterministic re-execution through obs.RepairSink, which
// refuses to write anything it cannot prove byte-identical to the manifest's
// fingerprints. What cannot be repaired is quarantined with a typed verdict,
// never served as a wrong answer.
package scrub

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"oclfpga/internal/obs"
)

// Kind classifies one piece of damage.
type Kind string

const (
	// KindBitRot is a checksum mismatch with the right length: flipped bits
	// inside a sealed segment.
	KindBitRot Kind = "bit-rot"
	// KindTruncated is a sealed segment shorter than its manifest entry.
	KindTruncated Kind = "truncated"
	// KindMissing is a manifest-listed segment with no file.
	KindMissing Kind = "missing-segment"
	// KindStructure is a sealed segment that checksums fine (or has no
	// fingerprint) but fails structural validation — or one that grew.
	KindStructure Kind = "structure"
	// KindTornRename is debris from a crash inside a commit: an orphan
	// sealed segment the manifest never adopted, a stray .tmp, a .part other
	// than an incomplete spill's open one, or a sidecar without a segment. A
	// leftover .idx.json from the retired two-file sidecar layout counts too.
	KindTornRename Kind = "torn-rename"
	// KindSidecarStale is a .flat sidecar that does not decode or is pinned
	// to other bytes than the manifest entry's; KindSidecarMissing one that
	// is absent.
	KindSidecarStale   Kind = "sidecar-stale"
	KindSidecarMissing Kind = "sidecar-missing"
	// KindBadManifest is an unreadable or invalid manifest — nothing else
	// can be trusted, so the run is quarantined.
	KindBadManifest Kind = "bad-manifest"
)

// Repair strategies, in escalation order.
const (
	// RepairNone marks damage with no mechanical fix (quarantine).
	RepairNone = "none"
	// RepairRemoveOrphan removes commit debris.
	RepairRemoveOrphan = "remove-orphan"
	// RepairSidecar rebuilds derived artifacts from the segment truth.
	RepairSidecar = "rebuild-sidecar"
	// RepairReexec regenerates the segment by deterministic re-execution.
	RepairReexec = "re-execute"
)

// Damage is one classified finding.
type Damage struct {
	Kind   Kind   `json:"kind"`
	File   string `json:"file"`
	Detail string `json:"detail,omitempty"`
	Repair string `json:"repair"`
}

// Report is a scan's verdict over one spill directory.
type Report struct {
	Dir      string             `json:"dir"`
	Manifest *obs.Manifest      `json:"-"`
	Segments []obs.SegmentCheck `json:"segments,omitempty"`
	Damage   []Damage           `json:"damage,omitempty"`
	// Quarantined is the existing quarantine marker, if the dir carries one.
	Quarantined *QuarantineRecord `json:"quarantined,omitempty"`
	// Healthy is true when nothing is damaged and no quarantine marker is
	// set.
	Healthy bool `json:"healthy"`
	// NeedsReexec lists segment files only re-execution can repair.
	NeedsReexec []string `json:"needsReexec,omitempty"`
}

// Scan classifies every artifact in a spill directory without modifying it.
func Scan(dir string) (*Report, error) {
	rep := &Report{Dir: dir}
	if q, ok := Quarantined(dir); ok {
		rep.Quarantined = q
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		if os.IsNotExist(err) {
			rep.Damage = append(rep.Damage, Damage{Kind: KindBadManifest, File: "manifest.json",
				Detail: "missing", Repair: RepairNone})
			return rep, nil
		}
		return nil, err
	}
	man, err := obs.ParseManifest(raw)
	if err != nil {
		rep.Damage = append(rep.Damage, Damage{Kind: KindBadManifest, File: "manifest.json",
			Detail: err.Error(), Repair: RepairNone})
		return rep, nil
	}
	rep.Manifest = man

	listed := map[string]bool{"manifest.json": true, quarantineName: true}
	for i, seg := range man.Segments {
		listed[seg.File] = true
		listed[obs.FlatSegmentName(seg.File)] = true
		c := obs.CheckSegment(dir, man, i)
		rep.Segments = append(rep.Segments, c)
		if c.Err != nil {
			d := Damage{File: seg.File, Detail: c.Err.Error(), Repair: RepairReexec}
			if ce, ok := obs.AsCorrupt(c.Err); ok {
				switch ce.Reason {
				case "checksum":
					d.Kind = KindBitRot
				case "truncated":
					d.Kind = KindTruncated
				case "missing":
					d.Kind = KindMissing
				default:
					d.Kind = KindStructure
				}
			} else {
				d.Kind = KindStructure
			}
			rep.Damage = append(rep.Damage, d)
			rep.NeedsReexec = append(rep.NeedsReexec, seg.File)
			continue
		}
		switch c.SidecarState {
		case "stale":
			rep.Damage = append(rep.Damage, Damage{Kind: KindSidecarStale, File: obs.FlatSegmentName(seg.File),
				Repair: RepairSidecar})
		case "missing":
			rep.Damage = append(rep.Damage, Damage{Kind: KindSidecarMissing, File: obs.FlatSegmentName(seg.File),
				Repair: RepairSidecar})
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		part, seg := obs.IsSegmentFile(name)
		switch {
		case listed[name]:
		case strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".repair"):
			rep.Damage = append(rep.Damage, Damage{Kind: KindTornRename, File: name,
				Detail: "stray temp file from an interrupted commit", Repair: RepairRemoveOrphan})
		case seg && !part:
			// A sealed segment beyond the manifest: rename landed, manifest
			// rewrite did not. The manifest is truth; this is debris.
			rep.Damage = append(rep.Damage, Damage{Kind: KindTornRename, File: name,
				Detail: "sealed segment the manifest never adopted", Repair: RepairRemoveOrphan})
		case seg && (man.Complete || name != obs.PartName(man)):
			rep.Damage = append(rep.Damage, Damage{Kind: KindTornRename, File: name,
				Detail: "unsealed segment left behind", Repair: RepairRemoveOrphan})
		case seg:
			// An incomplete spill's open segment: the expected debris of a
			// crash, never read (resume regenerates it), never damage.
		case strings.HasSuffix(name, ".idx.json"):
			rep.Damage = append(rep.Damage, Damage{Kind: KindTornRename, File: name,
				Detail: "index sidecar of the retired two-file layout", Repair: RepairRemoveOrphan})
		case strings.HasSuffix(name, ".flat"):
			rep.Damage = append(rep.Damage, Damage{Kind: KindTornRename, File: name,
				Detail: "sidecar without a manifest segment", Repair: RepairRemoveOrphan})
		}
	}
	rep.Healthy = len(rep.Damage) == 0 && rep.Quarantined == nil
	return rep, nil
}

// Rebuild re-executes the deterministic workload a manifest describes,
// streaming the regenerated record into sink (Finalize included). The caller
// supplies it because only the caller knows how to turn manifest meta back
// into a runnable machine — oclmon rebuilds its producer/consumer design,
// oclprof its named workloads.
type Rebuild func(man *obs.Manifest, sink obs.Sink) error

// Result is what a repair pass accomplished.
type Result struct {
	// Before is the pre-repair scan.
	Before *Report `json:"before"`
	// RemovedOrphans lists commit debris deleted.
	RemovedOrphans []string `json:"removedOrphans,omitempty"`
	// RebuiltSidecars counts .flat sidecars regenerated from segment truth.
	RebuiltSidecars int `json:"rebuiltSidecars,omitempty"`
	// Repaired is the per-segment outcome of the re-execution, if one ran.
	Repaired []obs.SegmentRepair `json:"repaired,omitempty"`
	// Healthy reports the post-repair rescan came back clean.
	Healthy bool `json:"healthy"`
	// Remaining is what is still damaged after repair (quarantine input).
	Remaining []Damage `json:"remaining,omitempty"`
}

// RepairDerived fixes everything that does not require re-execution: commit
// debris is removed, stale/missing sidecars of intact segments are rebuilt.
// Segment-body damage is left in place and reported in Remaining.
func RepairDerived(dir string) (*Result, error) {
	rep, err := Scan(dir)
	if err != nil {
		return nil, err
	}
	res := &Result{Before: rep}
	if err := applyDerived(dir, rep, res); err != nil {
		return res, err
	}
	after, err := Scan(dir)
	if err != nil {
		return res, err
	}
	res.Healthy = after.Healthy
	res.Remaining = after.Damage
	return res, nil
}

func applyDerived(dir string, rep *Report, res *Result) error {
	bodyDamaged := map[string]bool{}
	for _, f := range rep.NeedsReexec {
		bodyDamaged[f] = true
	}
	for _, d := range rep.Damage {
		switch d.Repair {
		case RepairRemoveOrphan:
			if err := os.Remove(filepath.Join(dir, d.File)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("scrub: remove orphan %s: %w", d.File, err)
			}
			res.RemovedOrphans = append(res.RemovedOrphans, d.File)
		case RepairSidecar:
			seg, ok := segForSidecar(rep.Manifest, d.File)
			if !ok || bodyDamaged[seg.File] {
				continue // body must be repaired first
			}
			rebuilt, err := obs.EnsureSegFlat(dir, seg)
			if err != nil {
				return fmt.Errorf("scrub: rebuild sidecar for %s: %w", seg.File, err)
			}
			if rebuilt {
				res.RebuiltSidecars++
			}
		}
	}
	return nil
}

// segForSidecar finds the manifest segment a .flat sidecar belongs to.
func segForSidecar(man *obs.Manifest, flatFile string) (obs.SegmentInfo, bool) {
	if man == nil {
		return obs.SegmentInfo{}, false
	}
	for _, seg := range man.Segments {
		if obs.FlatSegmentName(seg.File) == flatFile {
			return seg, true
		}
	}
	return obs.SegmentInfo{}, false
}

// Repair runs the full decision tree: derived repairs first, then — if any
// segment bodies are damaged and a rebuild is available — a deterministic
// re-execution through obs.RepairSink, whose fingerprint verification makes
// the swap byte-identical-or-nothing. A clean rescan clears any quarantine
// marker; a dirty one reports Remaining so the caller can quarantine.
func Repair(dir string, rebuild Rebuild) (*Result, error) {
	rep, err := Scan(dir)
	if err != nil {
		return nil, err
	}
	res := &Result{Before: rep}
	if rep.Manifest == nil {
		res.Remaining = rep.Damage
		return res, fmt.Errorf("scrub: %s: manifest unusable; nothing to repair against", dir)
	}
	if err := applyDerived(dir, rep, res); err != nil {
		return res, err
	}
	if len(rep.NeedsReexec) > 0 {
		if rebuild == nil {
			res.Remaining = rep.Damage
			return res, fmt.Errorf("scrub: %s: %d segments need re-execution and no rebuild is available",
				dir, len(rep.NeedsReexec))
		}
		rs, err := obs.NewRepairSink(dir, rep.Manifest, rep.NeedsReexec, nil)
		if err != nil {
			return res, err
		}
		if err := rebuild(rep.Manifest, rs); err != nil {
			return res, fmt.Errorf("scrub: %s: rebuild: %w", dir, err)
		}
		res.Repaired, err = rs.Commit()
		if err != nil {
			return res, fmt.Errorf("scrub: %s: %w", dir, err)
		}
	}
	after, err := Scan(dir)
	if err != nil {
		return res, err
	}
	// Derived damage can surface only after the body repair (a swapped-in
	// segment's old sidecar is now stale); one more derived pass settles it.
	if !after.Healthy {
		if err := applyDerived(dir, after, res); err != nil {
			return res, err
		}
		if after, err = Scan(dir); err != nil {
			return res, err
		}
	}
	res.Healthy = after.Healthy || (after.Quarantined != nil && len(after.Damage) == 0)
	res.Remaining = after.Damage
	if res.Healthy && after.Quarantined != nil {
		if err := Unquarantine(dir); err != nil {
			return res, err
		}
	}
	return res, nil
}
