package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Per-segment index sidecars (DESIGN.md §14). Each sealed NDJSON segment
// gains two derived artifacts next to it:
//
//	seg-000001.ndjson           the durable truth (listed in the manifest)
//	seg-000001.idx.json         sidecar index: cycle range, event-kind
//	                            counts, track/name vocabulary sets
//	seg-000001.flat             the segment's events in the OBSFLAT1 binary
//	                            codec (per-segment string table; samples and
//	                            the fin line excluded)
//
// The sidecars are caches, never sources of truth: they are not listed in
// the manifest (LoadSegments ignores unlisted files by design), they are
// validated against the manifest entry's file/lines/bytes before use, and
// anything missing or stale is rebuilt from the NDJSON segment — at seal
// time by the sink, on demand by `obscheck -index` or the query engine.
// Seal-time and rebuilt artifacts are byte-identical: both walk the same
// events in append order through the same builder, so intern order, record
// order, and JSON rendering agree.
//
// The index is what lets a query answer by reading only matching segments:
// a segment is skipped outright when the queried kind has a zero count, the
// track/name is absent from the vocabulary sets, or the cycle range is
// disjoint — no replay, no JSON parse of skipped segments.

// SegIndex is one segment's sidecar index.
type SegIndex struct {
	Version int    `json:"obsSegIndex"`
	File    string `json:"file"`
	// Lines/Bytes/SegCRC32C mirror the manifest entry; a mismatch means the
	// sidecar is stale and must be rebuilt. SegCRC32C is the sealed segment
	// file's checksum (zero when the manifest predates checksumming), which
	// pins the sidecar to the exact segment bytes it was derived from.
	Lines     int    `json:"lines"`
	Bytes     int64  `json:"bytes"`
	SegCRC32C uint32 `json:"segCrc32c,omitempty"`
	// Events/Samples split the payload lines by type.
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

const segIndexVersion = 1

func indexName(segFile string) string {
	return strings.TrimSuffix(segFile, ".ndjson") + ".idx.json"
}

// FlatSegmentName returns the binary OBSFLAT1 artifact name for a segment
// file name.
func FlatSegmentName(segFile string) string {
	return strings.TrimSuffix(segFile, ".ndjson") + ".flat"
}

// segIndexBuilder accumulates one segment's index and flat encoding as
// events/samples are appended — shared by the seal-time path (SegmentSink)
// and the rebuild path (BuildSegArtifacts), which is what makes the two
// byte-identical.
type segIndexBuilder struct {
	tab     internTable
	records []FlatRecord
	// use tallies how each interned string serves the segment's events,
	// indexed by its intern ID — the kind counts and track/name sets without
	// a string-keyed map lookup per event.
	use        []idUse
	samples    int
	firstCycle int64
	lastCycle  int64
}

// idUse is one interned string's role in a segment's events.
type idUse struct {
	kind         int // events of this kind
	track, named bool
}

func newSegIndexBuilder() *segIndexBuilder {
	return &segIndexBuilder{
		tab:        newInternTable(),
		firstCycle: -1,
		lastCycle:  -1,
	}
}

func (b *segIndexBuilder) addEvent(e *Event) {
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
	for len(b.use) < len(b.tab.strs) {
		b.use = append(b.use, idUse{})
	}
	b.use[rec.Kind].kind++
	b.use[rec.Track].track = true
	b.use[rec.Name].named = true
	if b.firstCycle < 0 || e.Start < b.firstCycle {
		b.firstCycle = e.Start
	}
	if e.End > b.lastCycle {
		b.lastCycle = e.End
	}
}

func (b *segIndexBuilder) addSample() { b.samples++ }

// finish closes the builder into the sidecar index and flat log for the
// sealed segment described by the manifest entry.
func (b *segIndexBuilder) finish(seg SegmentInfo) (SegIndex, *FlatLog) {
	idx := SegIndex{
		Version:    segIndexVersion,
		File:       seg.File,
		Lines:      seg.Lines,
		Bytes:      seg.Bytes,
		SegCRC32C:  seg.CRC32C,
		Events:     len(b.records),
		Samples:    b.samples,
		FirstCycle: b.firstCycle,
		LastCycle:  b.lastCycle,
	}
	if len(b.records) > 0 {
		idx.Kinds = map[string]int{}
		for id, u := range b.use {
			s := b.tab.strs[id]
			if u.kind > 0 {
				idx.Kinds[s] = u.kind
			}
			if u.track {
				idx.Tracks = append(idx.Tracks, s)
			}
			if u.named {
				idx.Names = append(idx.Names, s)
			}
		}
		sort.Strings(idx.Tracks)
		sort.Strings(idx.Names)
	}
	return idx, &FlatLog{Strings: b.tab.strs, Records: b.records}
}

// writeSegArtifacts commits both sidecars with temp-file + rename, matching
// the segment commit discipline so a crash never leaves a torn sidecar.
func writeSegArtifacts(dir string, idx SegIndex, flat *FlatLog) error {
	return writeSegArtifactsFS(OSFS(), dir, idx, flat)
}

// WriteSegArtifacts is the exported sidecar commit — the scrubber's
// rebuild-sidecar repair pairs it with BuildSegArtifacts.
func WriteSegArtifacts(dir string, idx SegIndex, flat *FlatLog) error {
	return writeSegArtifacts(dir, idx, flat)
}

// writeSegArtifactsFS is writeSegArtifacts through an explicit VFS — the
// seal-time path, so sidecar writes are visible to the fault injector too.
func writeSegArtifactsFS(fs VFS, dir string, idx SegIndex, flat *FlatLog) error {
	buf, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: segindex: %w", err)
	}
	buf = append(buf, '\n')
	if err := atomicWrite(fs, filepath.Join(dir, indexName(idx.File)), buf); err != nil {
		return err
	}
	return atomicWrite(fs, filepath.Join(dir, FlatSegmentName(idx.File)), flat.AppendFlat(nil))
}

func atomicWrite(fs VFS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := fs.WriteFile(tmp, data, 0o666); err != nil {
		return fmt.Errorf("obs: segindex: %w", err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("obs: segindex: %w", err)
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

// ParseSegIndex parses and validates sidecar index bytes. Like ParseManifest
// it must error (never panic) on arbitrary input — the sidecar fuzz target's
// contract.
func ParseSegIndex(raw []byte) (*SegIndex, error) {
	var idx SegIndex
	if err := json.Unmarshal(raw, &idx); err != nil {
		return nil, fmt.Errorf("obs: segindex: %w", err)
	}
	if idx.Version != segIndexVersion {
		return nil, fmt.Errorf("obs: segindex: unsupported version %d", idx.Version)
	}
	if idx.Lines < 0 || idx.Bytes < 0 || idx.Events < 0 || idx.Samples < 0 {
		return nil, fmt.Errorf("obs: segindex: negative size field")
	}
	if idx.Events+idx.Samples != idx.Lines {
		return nil, fmt.Errorf("obs: segindex: %d events + %d samples != %d lines", idx.Events, idx.Samples, idx.Lines)
	}
	if idx.FirstCycle < -1 || idx.LastCycle < -1 {
		return nil, fmt.Errorf("obs: segindex: cycle range below -1")
	}
	return &idx, nil
}

// LoadSegIndex reads and validates one segment's sidecar index. A missing,
// unreadable, or stale sidecar (file/lines/bytes/checksum disagreeing with
// the manifest entry) is an error; callers rebuild via BuildSegArtifacts.
func LoadSegIndex(dir string, seg SegmentInfo) (*SegIndex, error) {
	raw, err := os.ReadFile(filepath.Join(dir, indexName(seg.File)))
	if err != nil {
		return nil, err
	}
	idx, err := ParseSegIndex(raw)
	if err != nil {
		return nil, fmt.Errorf("obs: segindex: %s: %w", seg.File, err)
	}
	if idx.File != seg.File || idx.Lines != seg.Lines || idx.Bytes != seg.Bytes || idx.SegCRC32C != seg.CRC32C {
		return nil, fmt.Errorf("obs: segindex: %s: stale sidecar (segment resealed?)", seg.File)
	}
	return idx, nil
}

// LoadSegFlat reads one segment's binary OBSFLAT1 artifact, validating the
// decode and the expected event count (from the sidecar index) so a stale
// artifact can never silently satisfy a query.
func LoadSegFlat(dir string, seg SegmentInfo, wantEvents int) (*FlatLog, error) {
	raw, err := os.ReadFile(filepath.Join(dir, FlatSegmentName(seg.File)))
	if err != nil {
		return nil, err
	}
	fl, err := DecodeFlat(raw)
	if err != nil {
		return nil, fmt.Errorf("obs: segflat: %s: %w", seg.File, err)
	}
	if len(fl.Records) != wantEvents {
		return nil, fmt.Errorf("obs: segflat: %s: %d records, index says %d events (stale artifact)",
			seg.File, len(fl.Records), wantEvents)
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

// ReadSegmentEvents parses one sealed NDJSON segment into its events (sample
// count returned alongside), enforcing the manifest entry's checksum and
// validating header and line structure the same way LoadSegments does —
// damage surfaces as a typed *CorruptSegmentError.
func ReadSegmentEvents(dir string, seg SegmentInfo) ([]Event, int, error) {
	data, err := os.ReadFile(filepath.Join(dir, seg.File))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, corrupt(dir, seg.File, -1, "missing", "sealed segment file", "no file")
		}
		return nil, 0, err
	}
	if seg.FileBytes != 0 || seg.CRC32C != 0 {
		if int64(len(data)) != seg.FileBytes {
			return nil, 0, corrupt(dir, seg.File, min64(len(data), seg.FileBytes), "truncated",
				fmt.Sprintf("%d bytes", seg.FileBytes), fmt.Sprintf("%d bytes", len(data)))
		}
		if got := Checksum(data); got != seg.CRC32C {
			return nil, 0, corrupt(dir, seg.File, 0, "checksum",
				fmt.Sprintf("crc32c %08x", seg.CRC32C), fmt.Sprintf("%08x", got))
		}
	}
	lines, samples, _, err := parseSegment(dir, seg.File, data, segmentParse{
		anyHeader: true, // the manifest's design is not in scope here
		wantLines: seg.Lines, allowFin: true, needFin: false, endCycle: -1,
	})
	if err != nil {
		return nil, 0, err
	}
	var events []Event
	for _, raw := range lines {
		var ln ndjsonLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return nil, 0, fmt.Errorf("obs: segment: %s: %w", seg.File, err)
		}
		if ln.E != nil {
			events = append(events, *ln.E)
		}
	}
	return events, samples, nil
}

// BuildSegArtifacts rebuilds one segment's index and flat artifacts from its
// NDJSON truth (without writing them; see EnsureSegIndex / EnsureIndex).
func BuildSegArtifacts(dir string, seg SegmentInfo) (*SegIndex, *FlatLog, error) {
	events, samples, err := ReadSegmentEvents(dir, seg)
	if err != nil {
		return nil, nil, err
	}
	b := newSegIndexBuilder()
	for i := range events {
		b.addEvent(&events[i])
	}
	b.samples = samples
	idx, flat := b.finish(seg)
	return &idx, flat, nil
}

// EnsureSegIndex returns a valid sidecar index for the segment, rebuilding
// from NDJSON when missing or stale. Rebuilt artifacts are written back
// best-effort: a read-only spill directory still queries fine, it just
// rebuilds again next time.
func EnsureSegIndex(dir string, seg SegmentInfo) (idx *SegIndex, rebuilt bool, err error) {
	if idx, err = LoadSegIndex(dir, seg); err == nil {
		return idx, false, nil
	}
	idx, flat, err := BuildSegArtifacts(dir, seg)
	if err != nil {
		return nil, false, err
	}
	_ = writeSegArtifacts(dir, *idx, flat) // cache write; failure is not fatal
	return idx, true, nil
}

// EnsureIndex builds or repairs the sidecar index artifacts for every sealed
// segment in the spill directory, returning how many were (re)built. Unlike
// EnsureSegIndex it is strict: this is `obscheck -index`'s path, where a
// failed sidecar write must surface.
func EnsureIndex(dir string) (rebuilt int, err error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return 0, err
	}
	for _, seg := range man.Segments {
		if _, err := LoadSegIndex(dir, seg); err == nil {
			if _, err := LoadSegFlat(dir, seg, mustEventCount(dir, seg)); err == nil {
				continue
			}
		}
		idx, flat, err := BuildSegArtifacts(dir, seg)
		if err != nil {
			return rebuilt, err
		}
		if err := writeSegArtifacts(dir, *idx, flat); err != nil {
			return rebuilt, err
		}
		rebuilt++
	}
	return rebuilt, nil
}

// mustEventCount returns the sidecar's event count for flat validation (the
// sidecar was just validated; a racing rewrite degrades to a rebuild).
func mustEventCount(dir string, seg SegmentInfo) int {
	idx, err := LoadSegIndex(dir, seg)
	if err != nil {
		return -1 // forces the flat check to fail -> rebuild
	}
	return idx.Events
}
