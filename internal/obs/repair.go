package obs

import (
	"fmt"
	"path/filepath"
	"slices"
)

// Byte-identical regeneration (DESIGN.md §11, §16). The manifest's
// per-segment fingerprints (FileBytes + CRC32C) make every sealed segment
// provably reproducible: re-execute the deterministic workload from cycle 0,
// cut the regenerated record stream into segments exactly as the manifest
// records them, and demand that each cut's container fingerprint equals its
// entry's. Repair and resume are the same walk over the sealed prefix.
// Repair keeps the regenerated containers of the damaged segments and swaps
// them in; resume keeps none and, once the prefix is proven, appends new
// segments where it ends. A crashed run's unsealed segment is never read:
// whatever it held, the re-execution regenerates.

// sealedPrefix is the one verifier of a manifest's sealed segments against a
// regenerated stream: the segment walk, the cut at each entry's record
// count, the fingerprint compare, the end-cycle check, and the short-run
// error. Every mismatch is a *CorruptSegmentError naming the segment.
type sealedPrefix struct {
	dir string
	man Manifest
	// keep names the segments whose regenerated containers are kept for the
	// caller (repair's damaged list); kept holds them once verified.
	keep map[string]bool
	kept map[string][]byte

	idx   int          // manifest segment being regenerated
	b     *flatBuilder // its regenerated records; nil once every segment is proven
	buf   []byte       // encode buffer of segments not kept
	lines int          // payload records of the segments verified so far
	err   error
}

func newSealedPrefix(dir string, man *Manifest, keep map[string]bool) *sealedPrefix {
	p := &sealedPrefix{dir: dir, man: *man, keep: keep, kept: map[string][]byte{}}
	p.open()
	return p
}

// open starts regenerating the next manifest segment, if any, in memory.
func (p *sealedPrefix) open() {
	p.b = nil
	if p.idx == len(p.man.Segments) {
		return
	}
	p.b = newFlatBuilder()
	p.advance()
}

// holdsEnd reports whether the open segment is a complete spill's last one,
// which closes only at the run's end.
func (p *sealedPrefix) holdsEnd() bool {
	return p.man.Complete && p.idx == len(p.man.Segments)-1
}

// advance closes the open segment once it holds its entry's record count.
func (p *sealedPrefix) advance() {
	if p.err == nil && p.b != nil && !p.holdsEnd() && p.b.lines() >= p.man.Segments[p.idx].Lines {
		p.close(-1)
	}
}

// target is the builder a regenerated record belongs to: the open segment's
// while the sealed prefix is being proven, nil once it is (or after a
// mismatch, when the rest is swallowed).
func (p *sealedPrefix) target() *flatBuilder {
	if p.err != nil {
		return nil
	}
	return p.b
}

// close fingerprint-verifies the open segment, with endCycle, against its
// manifest entry, keeps it when asked, and opens the next.
func (p *sealedPrefix) close(endCycle int64) {
	seg := p.man.Segments[p.idx]
	got, buf := p.b.finish(seg.File, endCycle, p.buf)
	if got != seg {
		p.err = p.diverged(seg.File, 0,
			fmt.Sprintf("%d bytes crc32c %08x (manifest)", seg.FileBytes, seg.CRC32C),
			fmt.Sprintf("%d bytes crc32c %08x (regenerated)", got.FileBytes, got.CRC32C))
		return
	}
	p.buf = buf
	if p.keep[seg.File] {
		p.kept[seg.File], p.buf = buf, nil
	}
	p.lines += seg.Lines
	p.idx++
	p.open()
}

// end checks the regenerated run ended where the manifest says: a complete
// spill's end cycle, closing its last segment, and no sealed segment left
// short.
func (p *sealedPrefix) end(endCycle int64) error {
	if p.err == nil && p.man.Complete {
		if endCycle != p.man.EndCycle {
			p.err = p.diverged(manifestName, -1,
				fmt.Sprintf("end cycle %d (manifest)", p.man.EndCycle),
				fmt.Sprintf("end cycle %d (regenerated)", endCycle))
			return p.err
		}
		if p.b != nil && p.holdsEnd() {
			p.close(endCycle)
		}
	}
	if p.err == nil && p.b != nil {
		p.err = p.diverged(p.man.Segments[p.idx].File, -1,
			fmt.Sprintf("%d sealed segments", len(p.man.Segments)),
			fmt.Sprintf("run ended during segment %d", p.idx+1))
	}
	return p.err
}

func (p *sealedPrefix) diverged(file string, off int64, expected, got string) *CorruptSegmentError {
	return corrupt(p.dir, file, off, "repair-divergence", expected, got)
}

// SegmentRepair reports one segment's outcome after a repair run.
type SegmentRepair struct {
	File string `json:"file"`
	// Damaged records whether the segment was on the repair list.
	Damaged bool `json:"damaged"`
	// Verified reports the regenerated container matched the manifest
	// fingerprint.
	Verified bool `json:"verified"`
	// Written reports the regenerated file was swapped in.
	Written bool `json:"written,omitempty"`
}

// RepairSink is the Sink a repair re-execution streams into. It must see the
// complete regenerated run; Commit then performs the verified swap.
type RepairSink struct {
	fs        VFS
	prefix    *sealedPrefix
	finalized bool
}

// NewRepairSink prepares a repair of the named damaged segments in dir. The
// caller re-executes the workload recorded in the manifest into this sink
// and then calls Commit.
func NewRepairSink(dir string, man *Manifest, damaged []string, fs VFS) (*RepairSink, error) {
	if fs == nil {
		fs = OSFS()
	}
	dm := map[string]bool{}
	for _, f := range damaged {
		if !slices.ContainsFunc(man.Segments, func(seg SegmentInfo) bool { return seg.File == f }) {
			return nil, fmt.Errorf("obs: repair: %s is not in the manifest", f)
		}
		dm[f] = true
	}
	return &RepairSink{fs: fs, prefix: newSealedPrefix(dir, man, dm)}, nil
}

// Event implements Sink. Records past the sealed prefix (an incomplete
// spill) are the resume path's business; repair only reconstructs what the
// manifest attests.
func (r *RepairSink) Event(e Event) {
	if b := r.prefix.target(); b != nil {
		b.addEvent(&e)
		r.prefix.advance()
	}
}

// Sample implements Sink.
func (r *RepairSink) Sample(sm Sample) {
	if b := r.prefix.target(); b != nil {
		b.addSample(&sm)
		r.prefix.advance()
	}
}

// Finalize implements Sink: it checks the regenerated run covered every
// sealed segment and, for a complete manifest, ended at its end cycle.
func (r *RepairSink) Finalize(endCycle int64) error {
	if !r.finalized {
		r.finalized = true
		r.prefix.end(endCycle)
	}
	return r.prefix.err
}

// Commit swaps the regenerated damaged containers in, each committed as a
// sealed segment is: written, fsynced, closed, then renamed. Nothing is
// written unless every segment — intact and damaged — regenerated to its
// manifest fingerprint.
func (r *RepairSink) Commit() ([]SegmentRepair, error) {
	if !r.finalized {
		return nil, fmt.Errorf("obs: repair: Commit before Finalize")
	}
	p := r.prefix
	var done []SegmentRepair
	for _, seg := range p.man.Segments[:p.idx] {
		done = append(done, SegmentRepair{File: seg.File, Damaged: p.keep[seg.File], Verified: true})
	}
	if p.err != nil {
		return done, p.err
	}
	for i := range done {
		rep := &done[i]
		if !rep.Damaged {
			continue
		}
		// A failure at any stage leaves the damaged file in place.
		path := filepath.Join(p.dir, rep.File)
		err := writeSynced(r.fs, path+".repair", p.kept[rep.File])
		if err == nil {
			err = r.fs.Rename(path+".repair", path)
		}
		if err != nil {
			return done, fmt.Errorf("obs: repair: %s: %w", rep.File, err)
		}
		rep.Written = true
	}
	return done, nil
}
