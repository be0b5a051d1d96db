package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync"
)

// The recorder's hot-path storage: one recorded event is a fixed-width
// six-word record appended to a per-track segmented flat buffer. Nothing on
// the append path allocates (beyond amortized segment growth), carries a
// pointer, or materializes a string — the Event struct, its track/name
// strings, and its detail text exist only at Timeline()/sink-flush time.
//
// Three mechanisms make that possible:
//
//   - string interning: every track/name/kind/detail string is an index (ID)
//     into a per-recorder table, so the simulator's small, highly repetitive
//     vocabulary ("chan:pipe", "unit:k", "read-stall") is stored once and
//     every event references it by number;
//
//   - lazy details: an event annotation is a template tag plus one packed
//     argument ("unit=" + interned name, "value=" + integer, or an interned
//     literal), rendered to its string form — through a per-(template, arg)
//     cache — only when an Event is actually built;
//
//   - sharded append with deterministic merge: records land in per-track
//     shards, each a chain of fixed-size segments (no doubling copies, no
//     pointers for the GC to scan), stamped with a global sequence number.
//     Merging by sequence at sample/finalize/fast-forward-jump points
//     reproduces exactly the order a single append log would have held, so
//     the encoding is invisible: timelines, NDJSON spills, and Perfetto
//     output are byte-identical to the pre-flat recorder's.

// ID is an index into a Recorder's intern table. The zero ID is the empty
// string, so ID fields in sim-side caches can treat 0 as "not yet interned".
type ID uint32

// internTable is an append-only string pool: each distinct string gets one
// dense index, and index 0 is always the empty string.
type internTable struct {
	ids  map[string]ID
	strs []string
}

func newInternTable() internTable {
	return internTable{ids: map[string]ID{"": 0}, strs: []string{""}}
}

func (t *internTable) intern(s string) ID {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := ID(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

func (t *internTable) str(id ID) string { return t.strs[id] }

// DetailTmpl selects how a record's packed detail argument renders to the
// Event.Detail string.
type DetailTmpl uint8

const (
	// TmplNone renders the empty detail.
	TmplNone DetailTmpl = iota
	// TmplLit renders the interned string Arg indexes, verbatim.
	TmplLit
	// TmplUnit renders "unit=" + the interned string Arg indexes — the
	// chan-stall attribution detail, kept as an ID so the analyze package
	// can read the unit without string parsing.
	TmplUnit
	// TmplValue renders "value=" + the signed integer in Arg.
	TmplValue

	tmplMax
)

// Detail is a lazily rendered event annotation: a template plus one packed
// argument, formatted only when an Event is materialized.
type Detail struct {
	tmpl DetailTmpl
	arg  uint64
}

// NoDetail is the empty annotation.
var NoDetail = Detail{}

// LitDetail annotates with a previously interned literal string.
func LitDetail(id ID) Detail { return Detail{tmpl: TmplLit, arg: uint64(id)} }

// UnitDetail annotates with "unit=" + the interned unit name.
func UnitDetail(unit ID) Detail { return Detail{tmpl: TmplUnit, arg: uint64(unit)} }

// ValueDetail annotates with "value=" + v.
func ValueDetail(v int64) Detail { return Detail{tmpl: TmplValue, arg: uint64(v)} }

// Record flags.
const (
	// FlagInstant marks a zero-extent event (Event.Instant).
	FlagInstant uint8 = 1 << iota
	// FlagFFJump routes the record to the Timeline.FFJumps track: jumps
	// describe how the run was simulated, not what the simulated hardware
	// did, but they still occupy one slot of the global append order so the
	// streamed form interleaves them exactly where they happened.
	FlagFFJump
)

const flagMask = FlagInstant | FlagFFJump

// Flat record layout: recWords little-endian 64-bit words.
//
//	w0  sequence number (global append order)
//	w1  kind ID (low 32) | detail template (bits 32..39) | flags (bits 40..47)
//	w2  track ID (low 32) | name ID (high 32)
//	w3  start cycle
//	w4  end cycle
//	w5  detail argument
const recWords = 6

// segRecs is the per-segment record capacity. Power of two so the record
// index decomposes into (segment, offset) with shifts; 256 records × 48 bytes
// keeps a segment at 12 KiB — large enough to amortize allocation, small
// enough that an idle track wastes little.
const (
	segRecs  = 256
	segShift = 8
	segMask  = segRecs - 1
)

// shard is one track's record storage: a chain of fixed-size segments. Within
// a shard, records are naturally ordered by sequence number. sunk marks the
// prefix already streamed to the sink.
type shard struct {
	track ID
	n     int
	sunk  int
	segs  [][]uint64
}

// segPool recycles record segments across recorders (see Recorder.Release):
// the steady-state "leave observability on" mode reuses the same fixed-size
// buffers run after run — the software analogue of the paper's ibuffer, a
// ring sized once and rewritten in place — so a run's recording allocates
// nothing once the pool is warm. Every record word is written on append, so
// a recycled segment needs no clearing.
var segPool = sync.Pool{New: func() any { return make([]uint64, segRecs*recWords) }}

// slot returns the next record's backing words, extending the chain as
// needed.
func (s *shard) slot() []uint64 {
	seg := s.n >> segShift
	if seg == len(s.segs) {
		s.segs = append(s.segs, segPool.Get().([]uint64))
	}
	off := (s.n & segMask) * recWords
	s.n++
	return s.segs[seg][off : off+recWords : off+recWords]
}

// at returns record i's backing words.
func (s *shard) at(i int) []uint64 {
	off := (i & segMask) * recWords
	return s.segs[i>>segShift][off : off+recWords : off+recWords]
}

// searchSeq returns the index of the first record with sequence number >= seq
// (s.n if none). Per-shard seqs are strictly ascending, so this is a binary
// search.
func (s *shard) searchSeq(seq uint64) int {
	lo, hi := 0, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.at(mid)[0] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FlatRecord is the decoded-but-uninterned view of one flat record: IDs
// instead of strings, the detail still packed. Strings resolve through the
// owning Recorder's Str.
type FlatRecord struct {
	Seq               uint64
	Kind, Track, Name ID
	Start, End        int64
	Flags             uint8
	Tmpl              DetailTmpl
	Arg               uint64
}

// IsInstant reports whether the record is a zero-extent instant.
func (f FlatRecord) IsInstant() bool { return f.Flags&FlagInstant != 0 }

// IsFFJump reports whether the record is a fast-forward jump.
func (f FlatRecord) IsFFJump() bool { return f.Flags&FlagFFJump != 0 }

func unpackRecord(w []uint64) FlatRecord {
	return FlatRecord{
		Seq:   w[0],
		Kind:  ID(w[1] & 0xffffffff),
		Tmpl:  DetailTmpl(w[1] >> 32 & 0xff),
		Flags: uint8(w[1] >> 40 & 0xff),
		Track: ID(w[2] & 0xffffffff),
		Name:  ID(w[2] >> 32),
		Start: int64(w[3]),
		End:   int64(w[4]),
		Arg:   w[5],
	}
}

func packRecord(w []uint64, f FlatRecord) {
	w[0] = f.Seq
	w[1] = uint64(f.Kind) | uint64(f.Tmpl)<<32 | uint64(f.Flags)<<40
	w[2] = uint64(f.Track) | uint64(f.Name)<<32
	w[3] = uint64(f.Start)
	w[4] = uint64(f.End)
	w[5] = f.Arg
}

// flatRef locates one record for the merge scratch buffer.
type flatRef struct {
	shard, idx int32
}

// FlatLog is a standalone flat record stream: an intern table, the merged
// (sequence-ordered) records and, for a sealed spill segment, its samples
// and end cycle. It is the unit the binary flat codec round-trips — the
// durable segment container (segment.go) — and what the codec fuzz target
// exercises. A recorder snapshot carries no samples and EndCycle -1.
type FlatLog struct {
	Strings []string
	Records []FlatRecord
	// Samples holds a segment's metrics samples as flat sample items
	// (sampleflat.go) whose names index Strings. The high 32 bits of each
	// header item's first word are the sample's position in the stream: the
	// number of records before it.
	Samples []uint64
	// EndCycle is the run's end cycle in a complete spill's last segment —
	// what the NDJSON stream's fin line carries — and -1 in any other log.
	EndCycle int64
}

const flatMagic = "OBSFLAT3"

// maxFlatStrings/maxFlatRecords bound DecodeFlat's up-front allocations; the
// per-item length checks against the remaining input are the real guard, these
// just keep a tiny malicious header from requesting gigabytes.
const (
	maxFlatStrings = 1 << 24
	maxFlatRecords = 1 << 26
)

// recBytes is one encoded record: the six packed words plus its checksum.
const recBytes = recWords*8 + 4

// sectionSum is the checksum each section and record of the codec carries:
// CRC-32 (IEEE). It is deliberately not the CRC32C the manifest fingerprints
// a segment file with. A CRC over bytes followed by their own CRC under the
// same polynomial cancels them out, so a whole-file CRC32C over
// CRC32C-sealed sections would not change when a section changes
// consistently — and resume and repair prove a regenerated container by
// exactly that fingerprint.
func sectionSum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Index section sizes: the fixed head (events, samples, first and last
// cycle, entry count) and one entry (string ID, kind count, role bits).
const (
	idxHeadBytes  = 4 + 4 + 8 + 8 + 4
	idxEntryBytes = 4 + 4 + 1
)

// Role bits of an index entry.
const (
	roleTrack uint8 = 1 << iota
	roleName
)

// sampleCount counts the header items of a flat sample stream.
func sampleCount(w []uint64) int {
	n := 0
	for i := 0; i < len(w); {
		tag := w[i] & sampTagMask
		if tag > sampTagLocal {
			break
		}
		if tag == sampTagHeader {
			n++
		}
		i += sampItemWords[tag]
	}
	return n
}

// appendIndex appends the index section: the log's event and sample counts,
// its cycle span (min Start, max End; both -1 with no records), and one
// entry per string ID the records use, ascending. The entries are tallied
// in place — one slot per string, then compacted — so encoding allocates
// nothing beyond buf.
func (l *FlatLog) appendIndex(buf []byte) []byte {
	le := binary.LittleEndian
	start := len(buf)
	buf = append(buf, make([]byte, idxHeadBytes)...)
	entStart := len(buf)
	for id := range l.Strings {
		buf = le.AppendUint32(buf, uint32(id))
		buf = append(buf, 0, 0, 0, 0, 0)
	}
	ents := buf[entStart:]
	first, last := int64(-1), int64(-1)
	for i, f := range l.Records {
		k := ents[int(f.Kind)*idxEntryBytes+4:]
		le.PutUint32(k, le.Uint32(k)+1)
		ents[int(f.Track)*idxEntryBytes+8] |= roleTrack
		ents[int(f.Name)*idxEntryBytes+8] |= roleName
		if i == 0 || f.Start < first {
			first = f.Start
		}
		if i == 0 || f.End > last {
			last = f.End
		}
	}
	n := 0
	for id := range l.Strings {
		e := ents[id*idxEntryBytes : (id+1)*idxEntryBytes]
		if le.Uint32(e[4:]) != 0 || e[8] != 0 {
			copy(ents[n*idxEntryBytes:], e)
			n++
		}
	}
	buf = buf[:entStart+n*idxEntryBytes]
	head := buf[start:entStart]
	le.PutUint32(head, uint32(len(l.Records)))
	le.PutUint32(head[4:], uint32(sampleCount(l.Samples)))
	le.PutUint64(head[8:], uint64(first))
	le.PutUint64(head[16:], uint64(last))
	le.PutUint32(head[24:], uint32(n))
	return le.AppendUint32(buf, sectionSum(buf[start:]))
}

// AppendFlat serializes the log to buf in four checksummed sections:
//
//	magic    "OBSFLAT3"
//	strings  count u32, then length u32 + bytes per string (index 0's empty
//	         string implicit); then the section's checksum
//	index    events u32, samples u32, first and last cycle i64, entry count
//	         u32, then per string ID in use, ascending: ID u32, kind count
//	         u32, role bits u8 (1 track, 2 name); then the section's checksum
//	samples  end cycle i64 (-1: none), word count u32, then the sample
//	         items' words u64; then the section's checksum
//	records  count u32, then per record its six packed words and their
//	         checksum
//
// Every checksum is sectionSum's CRC-32.
//
// A flipped bit anywhere in the artifact is a decode error with a byte
// offset, never a wrong event. The index section is a function of the
// records and the samples, so a reader can prune on it without decoding
// either, and DecodeFlat holds it to what it decodes. The encoding is
// canonical — DecodeFlat∘AppendFlat is the identity, which the codec fuzz
// target checks (checksums are functions of the data, so the identity
// survives them).
func (l *FlatLog) AppendFlat(buf []byte) []byte {
	buf, _ = l.appendFlat(buf)
	return buf
}

// appendFlat is AppendFlat, also returning where in buf the container's
// head — magic, string table and index section — ends.
func (l *FlatLog) appendFlat(buf []byte) ([]byte, int) {
	size := len(flatMagic) + 4 + 4 + idxHeadBytes + len(l.Strings)*idxEntryBytes + 4 +
		8 + 4 + 8*len(l.Samples) + 4 + 4 + len(l.Records)*recBytes
	for _, s := range l.Strings[1:] {
		size += 4 + len(s)
	}
	if cap(buf)-len(buf) < size {
		buf = append(make([]byte, 0, len(buf)+size), buf...)
	}
	le := binary.LittleEndian
	buf = append(buf, flatMagic...)
	strStart := len(buf)
	buf = le.AppendUint32(buf, uint32(len(l.Strings)))
	for _, s := range l.Strings[1:] {
		buf = le.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	buf = le.AppendUint32(buf, sectionSum(buf[strStart:]))
	buf = l.appendIndex(buf)
	smpStart := len(buf)
	buf = le.AppendUint64(buf, uint64(l.EndCycle))
	buf = le.AppendUint32(buf, uint32(len(l.Samples)))
	for _, w := range l.Samples {
		buf = le.AppendUint64(buf, w)
	}
	buf = le.AppendUint32(buf, sectionSum(buf[smpStart:]))
	buf = le.AppendUint32(buf, uint32(len(l.Records)))
	var w [recWords]uint64
	for _, f := range l.Records {
		packRecord(w[:], f)
		start := len(buf)
		for _, x := range w {
			buf = le.AppendUint64(buf, x)
		}
		buf = le.AppendUint32(buf, sectionSum(buf[start:]))
	}
	return buf, smpStart
}

// DecodeFlat parses a stream written by AppendFlat, validating every index and
// checksum: kind/track/name/literal-detail IDs must land inside the decoded
// string table, templates, flags and sample item tags must be known, every
// section and record CRC must match, the index section must be exactly the
// one the decoded records and samples imply, and no trailing bytes may
// follow. Malformed input yields an error, never a panic.
func DecodeFlat(data []byte) (*FlatLog, error) {
	h, err := decodeFlatHead(data)
	if err != nil {
		return nil, err
	}
	return h.decodeBody()
}

// flatReader walks an AppendFlat stream. A read past the end returns zeros
// and sets short, which the caller checks once per section.
type flatReader struct {
	orig, data []byte // the whole stream, and its unread rest
	short      bool
}

var errFlatTruncated = errors.New("obs: flat: truncated")

func (r *flatReader) take(n int) []byte {
	if r.short || len(r.data) < n {
		r.short = true
		return make([]byte, n)
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *flatReader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *flatReader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *flatReader) off() int64  { return int64(len(r.orig) - len(r.data)) }

// section checks a section's trailing checksum over orig[start:off()].
func (r *flatReader) section(name string, start int64) error {
	body := r.orig[start:r.off()]
	crc := r.u32()
	if r.short {
		return errFlatTruncated
	}
	if got := sectionSum(body); got != crc {
		return fmt.Errorf("obs: flat: %s checksum mismatch at byte %d (expected %08x, got %08x)",
			name, start, crc, got)
	}
	return nil
}

// flatHead is an AppendFlat stream decoded up to its samples: the string
// table and the index section, each checksum-verified, with every index
// entry's string ID inside the table. That is enough to answer the index
// without decoding a sample or a record.
type flatHead struct {
	log    *FlatLog // Strings only
	idx    []byte   // the raw index section, its checksum included
	idxOff int64    // the index section's stream offset
	r      flatReader
}

func decodeFlatHead(data []byte) (*flatHead, error) {
	if len(data) < len(flatMagic) || string(data[:len(flatMagic)]) != flatMagic {
		return nil, fmt.Errorf("obs: flat: bad magic")
	}
	r := flatReader{orig: data, data: data[len(flatMagic):]}

	l := &FlatLog{}
	strStart := r.off()
	nStr := r.u32()
	if r.short {
		return nil, errFlatTruncated
	}
	if nStr == 0 || nStr > maxFlatStrings {
		return nil, fmt.Errorf("obs: flat: string count %d out of range", nStr)
	}
	l.Strings = make([]string, 1, nStr)
	for i := uint32(1); i < nStr; i++ {
		n := r.u32()
		if r.short {
			return nil, errFlatTruncated
		}
		if uint64(n) > uint64(len(r.data)) {
			return nil, fmt.Errorf("obs: flat: string %d length %d past end", i, n)
		}
		l.Strings = append(l.Strings, string(r.take(int(n))))
	}
	if err := r.section("string table", strStart); err != nil {
		return nil, err
	}

	// The index section is read for its extent here, and held to the decoded
	// records and samples by decodeBody.
	idxStart := r.off()
	r.take(idxHeadBytes - 4)
	nEnt := r.u32()
	if r.short {
		return nil, errFlatTruncated
	}
	if uint64(nEnt)*idxEntryBytes > uint64(len(r.data)) {
		return nil, fmt.Errorf("obs: flat: index entry count %d past end", nEnt)
	}
	ents := r.take(int(nEnt) * idxEntryBytes)
	if err := r.section("index", idxStart); err != nil {
		return nil, err
	}
	for i := 0; i < len(ents); i += idxEntryBytes {
		if binary.LittleEndian.Uint32(ents[i:]) >= nStr {
			return nil, fmt.Errorf("obs: flat: index entry %d: string ID out of range", i/idxEntryBytes)
		}
	}
	return &flatHead{log: l, idx: data[idxStart:r.off()], idxOff: idxStart, r: r}, nil
}

// index answers the index section without decoding a sample or record.
func (h *flatHead) index() *SegIndex { return parseIndex(h.log.Strings, h.idx) }

// decodeBody decodes and checks the samples and records sections and holds
// the index section to them, completing the log.
func (h *flatHead) decodeBody() (*FlatLog, error) {
	r, l := &h.r, h.log
	nStr := uint32(len(l.Strings))
	events := binary.LittleEndian.Uint32(h.idx)

	smpStart := r.off()
	l.EndCycle = int64(r.u64())
	nWords := r.u32()
	if r.short {
		return nil, errFlatTruncated
	}
	if uint64(nWords)*8 > uint64(len(r.data)) {
		return nil, fmt.Errorf("obs: flat: sample word count %d past end", nWords)
	}
	raw := r.take(int(nWords) * 8)
	if err := r.section("samples", smpStart); err != nil {
		return nil, err
	}
	if l.EndCycle < -1 {
		return nil, fmt.Errorf("obs: flat: end cycle %d out of range", l.EndCycle)
	}
	if nWords > 0 {
		l.Samples = make([]uint64, nWords)
	}
	for i := range l.Samples {
		l.Samples[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	if err := checkSamples(l.Samples, nStr, uint64(events)); err != nil {
		return nil, fmt.Errorf("obs: flat: samples at byte %d: %w", smpStart, err)
	}

	nRec := r.u32()
	if r.short {
		return nil, errFlatTruncated
	}
	if nRec > maxFlatRecords || uint64(nRec)*recBytes != uint64(len(r.data)) {
		return nil, fmt.Errorf("obs: flat: record count %d does not match %d remaining bytes", nRec, len(r.data))
	}
	l.Records = make([]FlatRecord, 0, nRec)
	var w [recWords]uint64
	for i := uint32(0); i < nRec; i++ {
		// The count check above guarantees every record's bytes.
		recOff := r.off()
		rec := r.take(recBytes)
		for j := range w {
			w[j] = binary.LittleEndian.Uint64(rec[j*8:])
		}
		if got, crc := sectionSum(rec[:recWords*8]), binary.LittleEndian.Uint32(rec[recWords*8:]); got != crc {
			return nil, fmt.Errorf("obs: flat: record %d checksum mismatch at byte %d (expected %08x, got %08x)",
				i, recOff, crc, got)
		}
		f := unpackRecord(w[:])
		switch {
		case w[1]>>48 != 0:
			// Bits 48-63 of the kind/tmpl/flags word are reserved slack that
			// unpackRecord ignores; rejecting nonzero keeps the encoding
			// canonical (decode then re-encode is the byte identity).
			return nil, fmt.Errorf("obs: flat: record %d: reserved bits set", i)
		case uint32(f.Kind) >= nStr || uint32(f.Track) >= nStr || uint32(f.Name) >= nStr:
			return nil, fmt.Errorf("obs: flat: record %d: string ID out of range", i)
		case f.Tmpl >= tmplMax:
			return nil, fmt.Errorf("obs: flat: record %d: unknown detail template %d", i, f.Tmpl)
		case f.Flags&^flagMask != 0:
			return nil, fmt.Errorf("obs: flat: record %d: unknown flags %#x", i, f.Flags)
		case (f.Tmpl == TmplLit || f.Tmpl == TmplUnit) && f.Arg >= uint64(nStr):
			return nil, fmt.Errorf("obs: flat: record %d: detail string ID out of range", i)
		}
		l.Records = append(l.Records, f)
	}
	if !bytes.Equal(l.appendIndex(nil), h.idx) {
		return nil, fmt.Errorf("obs: flat: index section at byte %d disagrees with the records", h.idxOff)
	}
	return l, nil
}

// checkSamples holds a flat sample stream to its item layout: whole items of
// known tags, a header item first, header positions ascending and at most
// records, every name ID inside the string table, and every unused bit of
// an item's tag word clear (so decode then re-encode is the byte identity).
func checkSamples(w []uint64, nStr uint32, records uint64) error {
	var at uint64
	for i := 0; i < len(w); {
		tag := w[i] & sampTagMask
		if tag > sampTagLocal {
			return fmt.Errorf("item at word %d: unknown tag %d", i, tag)
		}
		n := sampItemWords[tag]
		if i+n > len(w) {
			return fmt.Errorf("item at word %d: cut short", i)
		}
		if i == 0 && tag != sampTagHeader {
			return fmt.Errorf("item at word 0: not a sample header")
		}
		id, flags := w[i]>>32, w[i]&0xffffffff&^sampTagMask
		outside := id >= uint64(nStr)
		switch tag {
		case sampTagHeader:
			if id < at || id > records {
				return fmt.Errorf("item at word %d: position %d out of order", i, id)
			}
			at, outside = id, false
		case sampTagLSU:
			flags &^= sampStoreBit
			outside = outside || w[i+1]&0xffffffff >= uint64(nStr) || w[i+1]>>32 >= uint64(nStr)
		}
		if flags != 0 {
			return fmt.Errorf("item at word %d: reserved bits set", i)
		}
		if outside {
			return fmt.Errorf("item at word %d: string ID out of range", i)
		}
		i += n
	}
	return nil
}

// Detail renders the record's annotation against the log's string table.
func (l *FlatLog) Detail(f FlatRecord) string {
	switch f.Tmpl {
	case TmplLit:
		return l.Strings[f.Arg]
	case TmplUnit:
		return "unit=" + l.Strings[f.Arg]
	case TmplValue:
		return "value=" + strconv.FormatInt(int64(f.Arg), 10)
	}
	return ""
}
