package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// FlatLog is a standalone flat record stream: an intern table and the merged
// (sequence-ordered) records. It is the unit the binary flat codec
// round-trips, and what the codec fuzz target exercises. A recorder snapshot
// leaves Pin and Samples zero; a sealed segment's sidecar (index.go) carries
// both.
type FlatLog struct {
	// Pin ties a segment sidecar to the sealed segment bytes it was built
	// from.
	Pin FlatPin
	// Samples counts the segment's sample lines, which the log does not hold.
	Samples int
	Strings []string
	Records []FlatRecord
}

// FlatPin is the manifest fingerprint a segment sidecar answers for: the
// entry's payload line and byte counts and the sealed file's CRC32C.
type FlatPin struct {
	Lines  int
	Bytes  int64
	CRC32C uint32
}

const flatMagic = "OBSFLAT2"

// maxFlatStrings/maxFlatRecords bound DecodeFlat's up-front allocations; the
// per-item length checks against the remaining input are the real guard, these
// just keep a tiny malicious header from requesting gigabytes.
const (
	maxFlatStrings = 1 << 24
	maxFlatRecords = 1 << 26
)

// recBytes is one encoded record: the six packed words plus its CRC32C.
const recBytes = recWords*8 + 4

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
	le.PutUint32(head[4:], uint32(l.Samples))
	le.PutUint64(head[8:], uint64(first))
	le.PutUint64(head[16:], uint64(last))
	le.PutUint32(head[24:], uint32(n))
	return le.AppendUint32(buf, Checksum(buf[start:]))
}

// AppendFlat serializes the log to buf in four checksummed sections:
//
//	magic    "OBSFLAT2"
//	pin      lines u64, bytes u64, segment CRC32C u32; then the section's CRC32C
//	strings  count u32, then length u32 + bytes per string (index 0's empty
//	         string implicit); then the section's CRC32C
//	index    events u32, samples u32, first and last cycle i64, entry count
//	         u32, then per string ID in use, ascending: ID u32, kind count
//	         u32, role bits u8 (1 track, 2 name); then the section's CRC32C
//	records  count u32, then per record its six packed words and their CRC32C
//
// A flipped bit anywhere in the artifact is a decode error with a byte
// offset, never a wrong event. The index section is a function of the
// records and the sample count, so a reader can prune on it without
// decoding records, and DecodeFlat holds it to the records it decodes. The
// encoding is canonical — DecodeFlat∘AppendFlat is the identity, which the
// codec fuzz target checks (checksums are functions of the data, so the
// identity survives them).
func (l *FlatLog) AppendFlat(buf []byte) []byte {
	size := len(flatMagic) + 8 + 8 + 4 + 4 + 4 + 4 + idxHeadBytes + len(l.Strings)*idxEntryBytes + 4 + 4 + len(l.Records)*recBytes
	for _, s := range l.Strings[1:] {
		size += 4 + len(s)
	}
	if cap(buf)-len(buf) < size {
		buf = append(make([]byte, 0, len(buf)+size), buf...)
	}
	buf = append(buf, flatMagic...)
	pinStart := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.Pin.Lines))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.Pin.Bytes))
	buf = binary.LittleEndian.AppendUint32(buf, l.Pin.CRC32C)
	buf = binary.LittleEndian.AppendUint32(buf, Checksum(buf[pinStart:]))
	strStart := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.Strings)))
	for _, s := range l.Strings[1:] {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, Checksum(buf[strStart:]))
	buf = l.appendIndex(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.Records)))
	var w [recWords]uint64
	for _, f := range l.Records {
		packRecord(w[:], f)
		start := len(buf)
		for _, x := range w {
			buf = binary.LittleEndian.AppendUint64(buf, x)
		}
		buf = binary.LittleEndian.AppendUint32(buf, Checksum(buf[start:]))
	}
	return buf
}

// DecodeFlat parses a stream written by AppendFlat, validating every index and
// checksum: kind/track/name/literal-detail IDs must land inside the decoded
// string table, templates and flags must be known, every section and record
// CRC must match, the index section must be exactly the one the decoded
// records imply, and no trailing bytes may follow. Malformed input yields an
// error, never a panic.
func DecodeFlat(data []byte) (*FlatLog, error) {
	h, err := decodeFlatHead(data)
	if err != nil {
		return nil, err
	}
	return h.decodeRecords()
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

// section checks a section's trailing CRC32C over orig[start:off()].
func (r *flatReader) section(name string, start int64) error {
	body := r.orig[start:r.off()]
	crc := r.u32()
	if r.short {
		return errFlatTruncated
	}
	if got := Checksum(body); got != crc {
		return fmt.Errorf("obs: flat: %s checksum mismatch at byte %d (expected %08x, got %08x)",
			name, start, crc, got)
	}
	return nil
}

// flatHead is an AppendFlat stream decoded up to its records: the pin, the
// string table and the index section, each checksum-verified, with every
// index entry's string ID inside the table. That is enough to answer the
// index without decoding a record.
type flatHead struct {
	log    *FlatLog // Pin, Samples and Strings; no Records yet
	idx    []byte   // the raw index section, its CRC32C included
	idxOff int64    // the index section's stream offset
	r      flatReader
}

func decodeFlatHead(data []byte) (*flatHead, error) {
	if len(data) < len(flatMagic) || string(data[:len(flatMagic)]) != flatMagic {
		return nil, fmt.Errorf("obs: flat: bad magic")
	}
	r := flatReader{orig: data, data: data[len(flatMagic):]}

	l := &FlatLog{}
	pinStart := r.off()
	l.Pin = FlatPin{Lines: int(r.u64()), Bytes: int64(r.u64()), CRC32C: r.u32()}
	if err := r.section("pin", pinStart); err != nil {
		return nil, err
	}

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

	// The index section is read for its extent and sample count here, and
	// held to the decoded records by decodeRecords.
	idxStart := r.off()
	r.take(4)
	l.Samples = int(r.u32())
	r.take(16)
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

// index answers the index section without decoding a record.
func (h *flatHead) index() *SegIndex { return parseIndex(h.log.Strings, h.idx) }

// decodeRecords decodes and checks the records section and holds the index
// section to it, completing the log.
func (h *flatHead) decodeRecords() (*FlatLog, error) {
	r, l := &h.r, h.log
	nStr := uint32(len(l.Strings))
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
		if got, crc := Checksum(rec[:recWords*8]), binary.LittleEndian.Uint32(rec[recWords*8:]); got != crc {
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
