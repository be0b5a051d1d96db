package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Per-segment sidecars (DESIGN.md §14). Each sealed NDJSON segment gains one
// derived artifact next to it:
//
//	seg-000001.ndjson   the durable truth (listed in the manifest)
//	seg-000001.flat     the segment's events in the OBSFLAT2 binary codec
//	                    (flat.go): pinned to the manifest entry, with a
//	                    per-segment string table, an index section and the
//	                    records (samples and the fin line excluded)
//
// The sidecar is a cache, never a source of truth: it is not listed in the
// manifest (LoadSegments ignores unlisted files by design), its pin must
// equal the manifest entry's lines/bytes/CRC32C before it is used, and a
// missing, undecodable or stale one is rebuilt from the NDJSON segment — at
// seal time by the sink, on demand by LoadSegFlat. Seal-time and rebuilt
// sidecars are byte-identical: both walk the same events in append order
// through the same builder, so intern order and record order agree.
//
// The index is what lets a query answer by reading only matching segments:
// a segment is skipped outright when the queried kind has a zero count, the
// track/name is absent from the vocabulary sets, or the cycle range is
// disjoint — no replay, no JSON parse.

// SegIndex is the Go view of a sidecar's index section.
type SegIndex struct {
	// Events/Samples split the segment's payload lines by type.
	Events  int `json:"events"`
	Samples int `json:"samples"`
	// FirstCycle/LastCycle span the segment's events (min Start, max End);
	// both -1 when the segment holds no events.
	FirstCycle int64 `json:"firstCycle"`
	LastCycle  int64 `json:"lastCycle"`
	// Kinds counts events per kind; Tracks/Names are the sorted vocabulary
	// sets (the bitmap role: membership pruning, exact and order-stable).
	Kinds  map[string]int `json:"kinds,omitempty"`
	Tracks []string       `json:"tracks,omitempty"`
	Names  []string       `json:"names,omitempty"`
}

// Index decodes the log's index section into its Go view.
func (l *FlatLog) Index() *SegIndex { return parseIndex(l.Strings, l.appendIndex(nil)) }

// parseIndex decodes an index section as appendIndex writes it, its entries'
// string IDs resolved against strs.
func parseIndex(strs []string, sec []byte) *SegIndex {
	le := binary.LittleEndian
	idx := &SegIndex{
		Events: int(le.Uint32(sec)), Samples: int(le.Uint32(sec[4:])),
		FirstCycle: int64(le.Uint64(sec[8:])), LastCycle: int64(le.Uint64(sec[16:])),
	}
	for e := sec[idxHeadBytes : len(sec)-4]; len(e) > 0; e = e[idxEntryBytes:] {
		s := strs[le.Uint32(e)]
		if k := le.Uint32(e[4:]); k > 0 {
			if idx.Kinds == nil {
				idx.Kinds = map[string]int{}
			}
			idx.Kinds[s] = int(k)
		}
		if e[8]&roleTrack != 0 {
			idx.Tracks = append(idx.Tracks, s)
		}
		if e[8]&roleName != 0 {
			idx.Names = append(idx.Names, s)
		}
	}
	sort.Strings(idx.Tracks)
	sort.Strings(idx.Names)
	return idx
}

// FlatSegmentName returns the OBSFLAT2 sidecar name for a segment file name.
func FlatSegmentName(segFile string) string {
	return strings.TrimSuffix(segFile, ".ndjson") + ".flat"
}

// pinOf is the pin a sidecar of the segment must carry.
func pinOf(seg SegmentInfo) FlatPin {
	return FlatPin{Lines: seg.Lines, Bytes: seg.Bytes, CRC32C: seg.CRC32C}
}

// flatBuilder accumulates one segment's flat sidecar as events and samples
// are appended — shared by the segment encoder (seal and repair) and the
// rebuild path, which is what makes the three byte-identical.
type flatBuilder struct {
	tab     internTable
	records []FlatRecord
	samples int
}

func newFlatBuilder() *flatBuilder { return &flatBuilder{tab: newInternTable()} }

func (b *flatBuilder) addEvent(e *Event) {
	rec := FlatRecord{
		Seq:   uint64(len(b.records)),
		Kind:  b.tab.intern(e.Kind),
		Track: b.tab.intern(e.Track),
		Name:  b.tab.intern(e.Name),
		Start: e.Start,
		End:   e.End,
	}
	if e.Instant {
		rec.Flags |= FlagInstant
	}
	if e.Kind == KindFFJump {
		rec.Flags |= FlagFFJump
	}
	if e.Detail != "" {
		rec.Tmpl = TmplLit
		rec.Arg = uint64(b.tab.intern(e.Detail))
	}
	b.records = append(b.records, rec)
}

// finish closes the builder into the sidecar of the sealed segment seg.
func (b *flatBuilder) finish(seg SegmentInfo) *FlatLog {
	return &FlatLog{Pin: pinOf(seg), Samples: b.samples, Strings: b.tab.strs, Records: b.records}
}

// writeSegFlat commits a segment's sidecar with temp-file + rename, matching
// the segment commit discipline so a crash never leaves a torn sidecar.
func writeSegFlat(fs VFS, dir, segFile string, fl *FlatLog) error {
	path := filepath.Join(dir, FlatSegmentName(segFile))
	if err := fs.WriteFile(path+".tmp", fl.AppendFlat(nil), 0o666); err != nil {
		return fmt.Errorf("obs: segflat: %w", err)
	}
	if err := fs.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("obs: segflat: %w", err)
	}
	return nil
}

// LoadManifest reads just a spill directory's manifest — the entry point for
// index-driven readers that must not pay LoadSegments' full line scan.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	return ParseManifest(raw)
}

// readSegFlat reads and decodes the segment's sidecar and checks its pin. It
// never writes: a missing sidecar is an os.IsNotExist error, an undecodable
// or stale one any other error. keep, when set, is asked about the index
// once the pin, string table and index section are verified; a segment it
// rejects is nil, its records neither decoded nor checked.
func readSegFlat(dir string, seg SegmentInfo, keep func(*SegIndex) bool) (*FlatLog, error) {
	raw, err := os.ReadFile(filepath.Join(dir, FlatSegmentName(seg.File)))
	if err != nil {
		return nil, err
	}
	h, err := decodeFlatHead(raw)
	if err == nil && h.log.Pin != pinOf(seg) {
		err = errors.New("stale sidecar: pinned to other segment bytes")
	}
	var fl *FlatLog
	if err == nil {
		if keep != nil && !keep(h.index()) {
			return nil, nil
		}
		fl, err = h.decodeRecords()
	}
	if err != nil {
		return nil, fmt.Errorf("obs: segflat: %s: %w", seg.File, err)
	}
	return fl, nil
}

// FlatEvents materializes a flat log's records back into events, in record
// order — byte-identical (as JSON) to the events the NDJSON segment parses
// to, which the query engine's flat/NDJSON equivalence rests on.
func (l *FlatLog) FlatEvents() []Event {
	out := make([]Event, len(l.Records))
	for i, f := range l.Records {
		out[i] = Event{
			Kind:    l.Strings[f.Kind],
			Track:   l.Strings[f.Track],
			Name:    l.Strings[f.Name],
			Start:   f.Start,
			End:     f.End,
			Instant: f.IsInstant(),
			Detail:  l.Detail(f),
		}
	}
	return out
}

// ensureSegFlat returns the segment's pinned sidecar, or nil when keep
// rejects its index (see readSegFlat). A missing, undecodable or stale
// sidecar — of a segment keep does not rule out by a verified index — is
// rebuilt from the NDJSON truth and written back: rebuilt reports that, werr
// is the write-back's error, and err a failure to read the truth itself (a
// typed *CorruptSegmentError for damage).
func ensureSegFlat(dir string, seg SegmentInfo, keep func(*SegIndex) bool) (fl *FlatLog, rebuilt bool, werr, err error) {
	if fl, err := readSegFlat(dir, seg, keep); err == nil {
		return fl, false, nil, nil
	}
	events, samples, err := ReadSegmentEvents(dir, seg)
	if err != nil {
		return nil, false, nil, err
	}
	b := newFlatBuilder()
	for i := range events {
		b.addEvent(&events[i])
	}
	b.samples = samples
	fl = b.finish(seg)
	werr = writeSegFlat(OSFS(), dir, seg.File, fl)
	if keep != nil && !keep(fl.Index()) {
		fl = nil
	}
	return fl, true, werr, nil
}

// LoadSegFlat returns the segment's pinned OBSFLAT2 sidecar — the one read
// path of the query engine and the spill diff. keep, when set, prunes: it is
// asked about the segment's index, read from the sidecar's verified head
// before any record, and a segment it rejects returns nil with its records
// neither decoded nor checked. A segment that is read is checked whole. A
// sidecar that is missing, undecodable or pinned to other bytes is rebuilt
// from the NDJSON truth and written back best-effort: a read-only spill
// directory still answers, it just rebuilds again next time.
func LoadSegFlat(dir string, seg SegmentInfo, keep func(*SegIndex) bool) (*FlatLog, error) {
	fl, _, _, err := ensureSegFlat(dir, seg, keep)
	return fl, err
}

// EnsureSegFlat is LoadSegFlat for callers whose job is the sidecar itself
// (`obscheck -index`, scrub's rebuild-sidecar rung): a failed write-back is
// an error. It reports whether the sidecar was rebuilt.
func EnsureSegFlat(dir string, seg SegmentInfo) (rebuilt bool, err error) {
	_, rebuilt, werr, err := ensureSegFlat(dir, seg, nil)
	if err == nil {
		err = werr
	}
	return rebuilt, err
}

// EnsureIndex builds or repairs the sidecar of every sealed segment in the
// spill directory, returning how many were (re)built.
func EnsureIndex(dir string) (rebuilt int, err error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return 0, err
	}
	for _, seg := range man.Segments {
		r, err := EnsureSegFlat(dir, seg)
		if err != nil {
			return rebuilt, err
		}
		if r {
			rebuilt++
		}
	}
	return rebuilt, nil
}
