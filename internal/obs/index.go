package obs

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// Segment containers (DESIGN.md §14). Each sealed segment is one file in the
// OBSFLAT3 codec (flat.go), listed and fingerprinted in the manifest:
//
//	seg-000001.flat   a per-segment string table, an index section, the
//	                  segment's samples (with their places among the events
//	                  and, in a complete spill's last segment, the run's end
//	                  cycle) and its event records
//
// The index is what lets a query answer by reading only matching segments:
// a segment is skipped outright when the queried kind has a zero count, the
// track/name is absent from the vocabulary sets, or the cycle range is
// disjoint — its samples and records are never decoded.

// SegIndex is the Go view of a container's index section.
type SegIndex struct {
	// Events/Samples split the segment's payload records by type.
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

// flatBuilder accumulates one segment's container as events and samples
// arrive — shared by the sink's seal and the regeneration behind resume and
// repair, which is what makes their containers byte-identical.
type flatBuilder struct {
	tab      internTable
	records  []FlatRecord
	samples  []uint64
	nSamples int
	last     int64 // highest cycle any record reached
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
	b.last = max(b.last, e.End)
}

func (b *flatBuilder) addSample(s *Sample) {
	b.samples = append(b.samples, sampTagHeader|uint64(len(b.records))<<32, uint64(s.Cycle))
	for i := range s.Channels {
		c := &s.Channels[i]
		putChan(b.item(sampTagChan), b.tab.intern(c.Name), c.Len, c.Stats)
	}
	for i := range s.LSUs {
		l := &s.LSUs[i]
		putLSU(b.item(sampTagLSU), b.tab.intern(l.Unit), b.tab.intern(l.Array), b.tab.intern(l.Kind), l.IsStore, l.LSUStats)
	}
	for i := range s.Locals {
		l := &s.Locals[i]
		putLocal(b.item(sampTagLocal), b.tab.intern(l.Name), l.Reads, l.Writes)
	}
	b.nSamples++
	b.last = max(b.last, s.Cycle)
}

// item appends one sample item of the given tag's width for the caller to
// fill: every put* function writes all of its words.
func (b *flatBuilder) item(tag int) []uint64 {
	n, w := len(b.samples), sampItemWords[tag]
	b.samples = slices.Grow(b.samples, w)[:n+w]
	return b.samples[n:]
}

// lines counts the payload records so far; bytes their encoded size, what
// SegmentConfig.MaxBytes bounds.
func (b *flatBuilder) lines() int { return len(b.records) + b.nSamples }

func (b *flatBuilder) bytes() int64 { return int64(len(b.records))*recBytes + int64(len(b.samples))*8 }

// finish encodes the container into buf (reused) as manifest entry file,
// with the run's end cycle when it is a complete spill's last segment (-1
// otherwise), and returns its entry and bytes.
func (b *flatBuilder) finish(file string, endCycle int64, buf []byte) (SegmentInfo, []byte) {
	l := FlatLog{Strings: b.tab.strs, Records: b.records, Samples: b.samples, EndCycle: endCycle}
	buf, head := l.appendFlat(buf[:0])
	return SegmentInfo{
		File: file, Lines: b.lines(), Bytes: b.bytes(), LastCycle: b.last,
		FileBytes: int64(len(buf)), CRC32C: Checksum(buf), HeadCRC32C: Checksum(buf[:head]),
	}, buf
}

// LoadManifest reads just a spill directory's manifest — the entry point for
// index-driven readers that must not pay LoadSegments' full decode.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	return ParseManifest(raw)
}

// readContainer reads one sealed segment's container and holds it to its
// manifest entry: the file's length, its head's fingerprint (HeadCRC32C),
// its CRC32C (when crc is set, which nothing but LoadOptions.SkipChecksums
// clears), then every section's own checksum and the entry's payload
// count. Every failure is a *CorruptSegmentError, except an unreadable
// file's own error. fp is the fingerprint verdict CheckSegment reports:
// "missing", "bad" (length or CRC32C mismatch), or "ok" (empty when crc is
// unset). keep, when set, is asked about the index once the head is
// verified and proven the segment's own; a segment it rejects is nil, its
// body — samples and records — neither decoded nor checked.
func readContainer(dir string, seg SegmentInfo, crc bool, keep func(*SegIndex) bool) (fp string, fl *FlatLog, err error) {
	data, err := os.ReadFile(filepath.Join(dir, seg.File))
	if err != nil {
		if os.IsNotExist(err) {
			err = corrupt(dir, seg.File, -1, "missing", "sealed segment file", "no file")
		}
		return "missing", nil, err
	}
	if int64(len(data)) != seg.FileBytes {
		reason := "truncated"
		if int64(len(data)) > seg.FileBytes {
			reason = "structure"
		}
		return "bad", nil, corrupt(dir, seg.File, min(int64(len(data)), seg.FileBytes), reason,
			fmt.Sprintf("%d bytes", seg.FileBytes), fmt.Sprintf("%d bytes", len(data)))
	}
	h, err := decodeFlatHead(data)
	if err == nil {
		if got := Checksum(data[:h.r.off()]); got != seg.HeadCRC32C {
			return "bad", nil, corrupt(dir, seg.File, 0, "checksum",
				fmt.Sprintf("head crc32c %08x", seg.HeadCRC32C), fmt.Sprintf("%08x", got))
		}
		if keep != nil && !keep(h.index()) {
			return "", nil, nil
		}
	}
	if crc {
		if got := Checksum(data); got != seg.CRC32C {
			return "bad", nil, corrupt(dir, seg.File, 0, "checksum",
				fmt.Sprintf("crc32c %08x", seg.CRC32C), fmt.Sprintf("%08x", got))
		}
		fp = "ok"
	}
	if err == nil {
		fl, err = h.decodeBody()
	}
	if err != nil {
		return fp, nil, corrupt(dir, seg.File, -1, "garbage", "OBSFLAT3 container", err.Error())
	}
	if n := len(fl.Records) + sampleCount(fl.Samples); n != seg.Lines {
		return fp, nil, corrupt(dir, seg.File, -1, "structure",
			fmt.Sprintf("%d payload records (manifest)", seg.Lines), fmt.Sprintf("%d payload records", n))
	}
	return fp, fl, nil
}

// LoadSegFlat returns the segment's decoded container — the read path of
// the query engine and the spill diff. keep, when set, prunes: it is asked
// about the segment's index, read from the container's head once that is
// proven the segment's own by its manifest fingerprint, and a segment it
// rejects returns nil with its body neither decoded nor checked. A segment
// that is read is held to its whole-file CRC32C and checked section by
// section, so another well-formed container in its place is refused;
// damage is a *CorruptSegmentError.
func LoadSegFlat(dir string, seg SegmentInfo, keep func(*SegIndex) bool) (*FlatLog, error) {
	_, fl, err := readContainer(dir, seg, true, keep)
	return fl, err
}

// FlatEvents materializes a flat log's records back into events, in record
// order.
func (l *FlatLog) FlatEvents() []Event {
	out := make([]Event, len(l.Records))
	for i, f := range l.Records {
		out[i] = l.event(f)
	}
	return out
}

func (l *FlatLog) event(f FlatRecord) Event {
	return Event{
		Kind:    l.Strings[f.Kind],
		Track:   l.Strings[f.Track],
		Name:    l.Strings[f.Name],
		Start:   f.Start,
		End:     f.End,
		Instant: f.IsInstant(),
		Detail:  l.Detail(f),
	}
}

// appendPayloads appends the log's events and samples to out in stream
// order: each sample after as many events as its position counts.
func (l *FlatLog) appendPayloads(out []Payload) []Payload {
	samples := decodeSamples(l.Strings, sampCursor{ws: &wordStream{chunks: [][]uint64{l.Samples}}}, nil)
	next, si := 0, 0
	for i := 0; i < len(l.Samples); i += sampItemWords[l.Samples[i]&sampTagMask] {
		if l.Samples[i]&sampTagMask != sampTagHeader {
			continue
		}
		for at := int(l.Samples[i] >> 32); next < at; next++ {
			out = append(out, Payload{E: l.event(l.Records[next])})
		}
		out = append(out, Payload{S: &samples[si]})
		si++
	}
	for ; next < len(l.Records); next++ {
		out = append(out, Payload{E: l.event(l.Records[next])})
	}
	return out
}
