// Package scrub is the spill durability engine (DESIGN.md §16): it walks a
// segmented spill directory, classifies every kind of disk damage the chaos
// suite can inject — bit rot, truncation, torn renames — and repairs what the
// durable record proves repairable. Commit debris is removed in place;
// segment damage is repaired by deterministic re-execution through
// obs.RepairSink, which refuses to write anything it cannot prove
// byte-identical to the manifest's fingerprints. What cannot be repaired is
// quarantined with a typed verdict, never served as a wrong answer.
package scrub

import (
	"errors"
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
	// sealed segment the manifest never adopted, a stray .tmp or .repair, or
	// a .part other than an incomplete spill's next one.
	KindTornRename Kind = "torn-rename"
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
// A manifest of another spill format version is refused with its
// *obs.SpillVersionError rather than classified: it is not damage, and no
// repair applies.
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
	var ve *obs.SpillVersionError
	if errors.As(err, &ve) {
		return nil, err
	}
	if err != nil {
		rep.Damage = append(rep.Damage, Damage{Kind: KindBadManifest, File: "manifest.json",
			Detail: err.Error(), Repair: RepairNone})
		return rep, nil
	}
	rep.Manifest = man

	for i, seg := range man.Segments {
		c := obs.CheckSegment(dir, man, i)
		rep.Segments = append(rep.Segments, c)
		if c.Err == nil {
			continue
		}
		d := Damage{Kind: KindStructure, File: seg.File, Detail: c.Err.Error(), Repair: RepairReexec}
		if ce, ok := obs.AsCorrupt(c.Err); ok {
			switch ce.Reason {
			case "checksum":
				d.Kind = KindBitRot
			case "truncated":
				d.Kind = KindTruncated
			case "missing":
				d.Kind = KindMissing
			}
		}
		rep.Damage = append(rep.Damage, d)
		rep.NeedsReexec = append(rep.NeedsReexec, seg.File)
	}
	debris, err := listDebris(dir, man)
	if err != nil {
		return nil, err
	}
	rep.Damage = append(rep.Damage, debris...)
	rep.Healthy = len(rep.Damage) == 0 && rep.Quarantined == nil
	return rep, nil
}

// listDebris lists the commit debris in a spill directory — files a crash
// inside a commit left that the manifest does not list — reading the
// directory listing only, never a segment.
func listDebris(dir string, man *obs.Manifest) ([]Damage, error) {
	listed := map[string]bool{"manifest.json": true, quarantineName: true}
	for _, seg := range man.Segments {
		listed[seg.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Damage
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		part, seg := obs.IsSegmentFile(name)
		switch {
		case listed[name]:
		case strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".repair"):
			out = append(out, Damage{Kind: KindTornRename, File: name,
				Detail: "stray temp file from an interrupted commit", Repair: RepairRemoveOrphan})
		case seg && !part:
			// A sealed segment beyond the manifest: rename landed, manifest
			// rewrite did not. The manifest is truth; this is debris.
			out = append(out, Damage{Kind: KindTornRename, File: name,
				Detail: "sealed segment the manifest never adopted", Repair: RepairRemoveOrphan})
		case seg && (man.Complete || name != obs.PartName(man)):
			out = append(out, Damage{Kind: KindTornRename, File: name,
				Detail: "unsealed segment left behind", Repair: RepairRemoveOrphan})
		case seg:
			// An incomplete spill's next segment, caught mid-commit: the
			// expected debris of a crash, never read (resume regenerates
			// it), never damage.
		}
	}
	return out, nil
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
	// Repaired is the per-segment outcome of the re-execution, if one ran.
	Repaired []obs.SegmentRepair `json:"repaired,omitempty"`
	// Healthy reports the post-repair rescan came back clean.
	Healthy bool `json:"healthy"`
	// Remaining is what is still damaged after repair (quarantine input).
	Remaining []Damage `json:"remaining,omitempty"`
}

// Sweep removes a spill directory's commit debris, returning the files
// removed. It reads the directory listing only, never a segment: the boot
// path of a spill whose load already verified every segment.
func Sweep(dir string, man *obs.Manifest) ([]string, error) {
	debris, err := listDebris(dir, man)
	if err != nil {
		return nil, err
	}
	return removeDebris(dir, debris)
}

// removeDebris deletes the commit debris among damage, returning the files
// removed.
func removeDebris(dir string, damage []Damage) ([]string, error) {
	var removed []string
	for _, d := range damage {
		if d.Repair != RepairRemoveOrphan {
			continue
		}
		if err := os.Remove(filepath.Join(dir, d.File)); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("scrub: remove orphan %s: %w", d.File, err)
		}
		removed = append(removed, d.File)
	}
	return removed, nil
}

// Repair runs the full decision tree: commit debris removed first, then — if
// any segments are damaged and a rebuild is available — a deterministic
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
	if res.RemovedOrphans, err = removeDebris(dir, rep.Damage); err != nil {
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
	res.Healthy = after.Healthy || (after.Quarantined != nil && len(after.Damage) == 0)
	res.Remaining = after.Damage
	if res.Healthy && after.Quarantined != nil {
		if err := Unquarantine(dir); err != nil {
			return res, err
		}
	}
	return res, nil
}
