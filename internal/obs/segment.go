package obs

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Durable segmented spill: the crash-safe form of the NDJSON stream. Instead
// of one file that is only valid once its terminal line lands, the stream is
// cut into size-rotated segments, each committed with temp-file + atomic
// rename and listed in a manifest (itself rewritten atomically). At any
// instant the directory therefore holds a durable, self-describing prefix of
// the run's record:
//
//	manifest.json          sealed-segment index + design/meta, atomically replaced
//	seg-000001.ndjson      sealed segment: header line + payload lines
//	seg-000002.ndjson.part segment being written (ignored by recovery)
//
// A process crash loses at most the unsealed .part segment, which nothing
// ever reads back. Because the simulator is deterministic, recovery is
// replay-based rather than journal-based: restart the workload from cycle 0
// with a resume sink (NewResumeSink) that cuts the regenerated stream at the
// manifest's per-segment line counts, proves each cut against its sealed
// segment's fingerprint (the check repair makes, repair.go), and appends new
// segments where the sealed prefix ends. The stitched record is then
// byte-identical to an uninterrupted run's — the recovery invariant the
// chaos suite asserts with fast-forward on and off.
//
// Every sealed segment's manifest entry records the file's full length and
// CRC32C, so bit rot, truncation, and torn writes surface as a typed
// CorruptSegmentError on load — and so the scrubber can prove a regenerated
// replacement byte-identical before swapping it in (DESIGN.md §16).

// SegmentInfo is one sealed segment's manifest entry.
type SegmentInfo struct {
	File string `json:"file"`
	// Lines counts payload (event/sample) lines — the header and any fin
	// line are excluded.
	Lines     int   `json:"lines"`
	Bytes     int64 `json:"bytes"`
	LastCycle int64 `json:"lastCycle"`
	// FileBytes/CRC32C fingerprint the sealed file in full (header and fin
	// included): the integrity check LoadSegments enforces and the repair
	// engine verifies regenerated segments against. Both zero in manifests
	// written before checksumming existed — those segments load unverified.
	FileBytes int64  `json:"fileBytes,omitempty"`
	CRC32C    uint32 `json:"crc32c,omitempty"`
}

// Manifest indexes a segmented spill directory.
type Manifest struct {
	Version     int    `json:"obsSegments"`
	Design      string `json:"design"`
	SampleEvery int64  `json:"sampleEvery,omitempty"`
	// Meta carries opaque workload parameters (e.g. oclmon's item count) so
	// a recovering process can rebuild the identical deterministic run.
	Meta     map[string]string `json:"meta,omitempty"`
	Complete bool              `json:"complete,omitempty"`
	EndCycle int64             `json:"endCycle,omitempty"`
	Segments []SegmentInfo     `json:"segments"`
}

const manifestName = "manifest.json"

func segmentName(seq int) string { return fmt.Sprintf("seg-%06d.ndjson", seq) }

// PartName is the unsealed file an incomplete spill's writer streams its
// next segment into.
func PartName(man *Manifest) string { return segmentName(len(man.Segments)+1) + ".part" }

// IsSegmentFile reports whether name is a segment file: sealed, or with part
// set, unsealed.
func IsSegmentFile(name string) (part, ok bool) {
	name, part = strings.CutSuffix(name, ".part")
	var seq int
	_, err := fmt.Sscanf(name, "seg-%d.ndjson", &seq)
	return part, err == nil && seq > 0 && name == segmentName(seq)
}

// ParseManifest parses and validates manifest bytes: version, segment naming
// (sequential seg-NNNNNN.ndjson — which also forecloses path traversal from
// an attacker-controlled spill dir), and field sanity. Malformed input is an
// error, never a panic; the manifest fuzz target holds it to that.
func ParseManifest(raw []byte) (*Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("obs: segment: manifest: %w", err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("obs: segment: unsupported manifest version %d", man.Version)
	}
	if man.SampleEvery < 0 || man.EndCycle < 0 {
		return nil, fmt.Errorf("obs: segment: manifest: negative sampleEvery/endCycle")
	}
	for i, seg := range man.Segments {
		if seg.File != segmentName(i+1) {
			return nil, fmt.Errorf("obs: segment: manifest: segment %d named %q, want %q", i+1, seg.File, segmentName(i+1))
		}
		if seg.Lines < 0 || seg.Bytes < 0 || seg.FileBytes < 0 || seg.LastCycle < 0 {
			return nil, fmt.Errorf("obs: segment: manifest: segment %s: negative size field", seg.File)
		}
	}
	return &man, nil
}

// SegmentConfig configures a segmented spill.
type SegmentConfig struct {
	// Dir is the spill directory (created if absent). One run per directory.
	Dir         string
	Design      string
	SampleEvery int64
	// Meta is stored in the manifest verbatim (see Manifest.Meta).
	Meta map[string]string
	// MaxLines rotates the open segment after this many payload lines
	// (default 4096); MaxBytes after this many payload bytes (default 1MiB).
	// Whichever trips first seals the segment.
	MaxLines int
	MaxBytes int64
	// FS is the filesystem the sink writes through (nil for the real one) —
	// the injection seam the disk-fault chaos suite arms.
	FS VFS
}

func (c *SegmentConfig) fill() {
	if c.MaxLines == 0 {
		c.MaxLines = 4096
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 1 << 20
	}
	if c.FS == nil {
		c.FS = OSFS()
	}
}

// segEncoder lays out one segment's bytes — header line, payload lines, fin
// line — and keeps what sealing it needs: the payload line and byte counts,
// the last cycle, the file's length and CRC32C, and the flat sidecar
// builder. SegmentSink streams the bytes into the segment's .part file; the
// sealed-prefix verifier behind resume and repair keeps them in memory;
// NDJSONSink streams a whole run as one segment with no sidecar. All of them
// seal through finish, so they cannot disagree on the layout or on the
// sidecar's pin.
type segEncoder struct {
	// w receives the bytes in segFlushBytes chunks; nil keeps the whole
	// segment in buf.
	w   io.Writer
	buf []byte
	err error // sticky write error: later lines are dropped, not buffered
	crc uint32
	n   int64 // bytes written to w

	lines int
	bytes int64
	last  int64
	flat  *flatBuilder // nil: no sidecar wanted
}

// segFlushBytes is a streaming encoder's write size.
const segFlushBytes = 4096

func newSegEncoder(w io.Writer, design string, sampleEvery int64, sidecar bool) *segEncoder {
	e := &segEncoder{w: w}
	if sidecar {
		e.flat = newFlatBuilder()
	}
	e.put(appendHeaderLine(nil, design, sampleEvery))
	return e
}

// put lands one newline-terminated line.
func (e *segEncoder) put(line []byte) {
	if e.err != nil {
		return
	}
	e.buf = append(append(e.buf, line...), '\n')
	if e.w != nil && len(e.buf) >= segFlushBytes {
		e.flush()
	}
}

// payload lands one payload line reaching cycle: an event's (ev set) or a
// sample's (ev nil).
func (e *segEncoder) payload(line []byte, cycle int64, ev *Event) error {
	switch {
	case e.flat == nil:
	case ev != nil:
		e.flat.addEvent(ev)
	default:
		e.flat.samples++
	}
	e.put(line)
	e.lines++
	e.bytes += int64(len(line)) + 1
	e.last = max(e.last, cycle)
	return e.err
}

func (e *segEncoder) fin(endCycle int64) error {
	e.put(appendFinLine(nil, endCycle))
	return e.err
}

// flush writes the buffered bytes to w, fingerprinting what reached it. A
// write error is sticky: the segment can no longer seal.
func (e *segEncoder) flush() error {
	if e.w == nil || e.err != nil {
		return e.err
	}
	n, err := e.w.Write(e.buf)
	e.crc = crc32.Update(e.crc, castagnoli, e.buf[:n])
	e.n += int64(n)
	e.buf = e.buf[:0]
	e.err = err
	return err
}

// finish closes the segment as manifest entry file: its SegmentInfo and,
// when built, its sidecar pinned to that entry. A streaming encoder must be
// flushed first.
func (e *segEncoder) finish(file string) (SegmentInfo, *FlatLog) {
	if e.w == nil {
		e.crc, e.n = Checksum(e.buf), int64(len(e.buf))
	}
	info := SegmentInfo{File: file, Lines: e.lines, Bytes: e.bytes, LastCycle: e.last, FileBytes: e.n, CRC32C: e.crc}
	if e.flat == nil {
		return info, nil
	}
	return info, e.flat.finish(info)
}

// SegmentSink spills the event/sample stream into rotated, atomically
// committed NDJSON segments. Mid-stream write errors are sticky (the sink
// goes quiet, like NDJSONSink); commit-phase errors at Finalize are kept
// separate and can be retried with RetryFinalize — the hook the supervisor's
// backoff loop uses for transient IO failures.
type SegmentSink struct {
	cfg SegmentConfig
	man Manifest

	// prefix proves a resumed run's regenerated stream against the sealed
	// segments before anything lands (nil for a fresh run).
	prefix *sealedPrefix

	f    File
	enc  *segEncoder // the open segment
	line []byte      // reused encode buffer: steady-state lines allocate nothing

	// pending is a closed .part awaiting rename + manifest commit, and
	// pendingFlat its sidecar. Sidecars are caches — their writes are
	// best-effort and happen only after the segment itself is durably
	// renamed.
	pending     *SegmentInfo
	pendingFlat *FlatLog

	werr      error // sticky stream/data error: not retryable
	cerr      error // commit error: retryable
	finalized bool
	endCycle  int64
}

// NewSegmentSink starts a fresh segmented spill in cfg.Dir, writing the
// manifest immediately so even a run that crashes before the first rotation
// leaves a recoverable (empty-prefix) log behind.
func NewSegmentSink(cfg SegmentConfig) (*SegmentSink, error) {
	cfg.fill()
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("obs: segment: %w", err)
	}
	s := &SegmentSink{cfg: cfg, man: Manifest{
		Version: 1, Design: cfg.Design, SampleEvery: cfg.SampleEvery, Meta: cfg.Meta,
	}}
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewResumeSink continues an interrupted segmented spill from its manifest
// alone: the regenerated stream is cut at the manifest's per-segment line
// counts and each cut must match its sealed segment's fingerprint (a
// mismatch, or a run that ends inside the sealed prefix, is a
// *CorruptSegmentError naming the segment), and every record after the
// sealed prefix is appended as new segments continuing the manifest, rotated
// by cfg. Sealed segments are never rewritten; the crashed run's .part is
// regenerated, not read.
func NewResumeSink(cfg SegmentConfig, man *Manifest) (*SegmentSink, error) {
	if man.Complete {
		return nil, fmt.Errorf("obs: segment: log in %s is complete; nothing to resume", cfg.Dir)
	}
	cfg.fill()
	cfg.Design = man.Design
	cfg.SampleEvery = man.SampleEvery
	cfg.Meta = man.Meta
	s := &SegmentSink{cfg: cfg, man: *man, prefix: newSealedPrefix(cfg.Dir, man, nil)}
	s.man.Segments = slices.Clip(s.man.Segments) // appends never write into man's array
	return s, nil
}

// Verified reports how many sealed-prefix payload lines the resumed run has
// reproduced byte-identically so far.
func (s *SegmentSink) Verified() int {
	if s.prefix == nil {
		return 0
	}
	return s.prefix.lines
}

// Dir returns the spill directory.
func (s *SegmentSink) Dir() string { return s.cfg.Dir }

func (s *SegmentSink) writeManifest() error {
	buf, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: segment: manifest: %w", err)
	}
	buf = append(buf, '\n')
	tmp := filepath.Join(s.cfg.Dir, manifestName+".tmp")
	if err := s.cfg.FS.WriteFile(tmp, buf, 0o666); err != nil {
		return fmt.Errorf("obs: segment: manifest: %w", err)
	}
	if err := s.cfg.FS.Rename(tmp, filepath.Join(s.cfg.Dir, manifestName)); err != nil {
		return fmt.Errorf("obs: segment: manifest: %w", err)
	}
	return nil
}

// open starts the next segment's .part file with its header line.
func (s *SegmentSink) open() error {
	name := segmentName(len(s.man.Segments) + 1)
	f, err := s.cfg.FS.Create(filepath.Join(s.cfg.Dir, name+".part"))
	if err != nil {
		return err
	}
	s.f = f
	s.enc = newSegEncoder(f, s.cfg.Design, s.cfg.SampleEvery, true)
	return nil
}

// seal commits the open segment: flush, fsync, close, atomic rename, and a
// manifest rewrite listing it. Idempotent across retries — each completed
// stage is not redone.
func (s *SegmentSink) seal() error {
	if s.f != nil {
		if err := s.enc.flush(); err != nil {
			return err
		}
		if err := s.f.Sync(); err != nil {
			return err
		}
		info, flat := s.enc.finish(segmentName(len(s.man.Segments) + 1))
		err := s.f.Close()
		s.f, s.enc = nil, nil
		if err != nil {
			return err
		}
		s.pending, s.pendingFlat = &info, flat
	}
	if s.pending != nil {
		p := filepath.Join(s.cfg.Dir, s.pending.File)
		if err := s.cfg.FS.Rename(p+".part", p); err != nil {
			return err
		}
		s.man.Segments = append(s.man.Segments, *s.pending)
		// Cache write: a failure degrades to an on-demand rebuild later.
		_ = writeSegFlat(s.cfg.FS, s.cfg.Dir, s.pending.File, s.pendingFlat)
		s.pending, s.pendingFlat = nil, nil
	}
	return s.writeManifest()
}

// lands reports whether an encoded payload line goes to the open segment
// (opening it if needed) — false after a sticky error, and while a resumed
// run regenerates its sealed prefix (those lines are already durable).
// Rotation is the caller's business (maybeRotate), after the encoder has
// taken the line. Lines arriving after Finalize are dropped: the manifest is
// already published complete, and lazily opening a fresh segment for them
// would leave a stray never-sealed .part.
func (s *SegmentSink) lands(line []byte, cycle int64, ev *Event) bool {
	if s.werr != nil || s.finalized {
		return false
	}
	if s.prefix != nil && s.prefix.take(line, cycle, ev) {
		s.werr = s.prefix.err
		return false
	}
	if s.f == nil {
		if err := s.open(); err != nil {
			s.werr = err
			return false
		}
	}
	return true
}

// maybeRotate seals the open segment once a size threshold trips.
func (s *SegmentSink) maybeRotate() {
	if s.werr != nil || s.f == nil {
		return
	}
	if s.enc.lines >= s.cfg.MaxLines || s.enc.bytes >= s.cfg.MaxBytes {
		if err := s.seal(); err != nil {
			s.werr = err
		}
	}
}

// Event implements Sink.
func (s *SegmentSink) Event(e Event) {
	if s.werr != nil {
		return
	}
	s.line = appendEventLine(s.line[:0], &e)
	if s.lands(s.line, e.End, &e) {
		s.werr = s.enc.payload(s.line, e.End, &e)
	}
	s.maybeRotate()
}

// Sample implements Sink.
func (s *SegmentSink) Sample(sm Sample) {
	if s.werr != nil {
		return
	}
	s.line = appendSampleLine(s.line[:0], &sm)
	if s.lands(s.line, sm.Cycle, nil) {
		s.werr = s.enc.payload(s.line, sm.Cycle, nil)
	}
	s.maybeRotate()
}

// Finalize writes the terminal fin line into the last segment, seals it, and
// marks the manifest complete. Stream errors are returned as-is; commit
// errors are additionally retryable via RetryFinalize.
func (s *SegmentSink) Finalize(endCycle int64) error {
	if s.finalized {
		return s.err()
	}
	s.finalized = true
	s.endCycle = endCycle
	if s.werr == nil && s.prefix != nil {
		s.werr = s.prefix.end(endCycle)
	}
	if s.werr == nil {
		if s.f == nil {
			if err := s.open(); err != nil {
				s.werr = err
			}
		}
		if s.werr == nil {
			s.werr = s.enc.fin(endCycle)
		}
	}
	return s.commit()
}

// commit seals the final segment and publishes the completed manifest.
// Completeness is set *before* the seal so its manifest write is the single
// atomic publish: there is no window where the durable manifest lists a
// fin-bearing segment without being marked complete (a crash there would
// otherwise leave a spill that loads as corrupt instead of resumable).
func (s *SegmentSink) commit() error {
	if s.werr != nil {
		return fmt.Errorf("obs: segment: %w", s.werr)
	}
	s.cerr = nil
	s.man.Complete = true
	s.man.EndCycle = s.endCycle
	if err := s.seal(); err != nil {
		s.cerr = err
		return fmt.Errorf("obs: segment: commit: %w", err)
	}
	return nil
}

// RetryFinalize re-attempts the commit phase after a Finalize failure.
// Stream/data errors are permanent and returned unchanged; commit errors
// (a failed rename or manifest write) are retried from the failed stage.
func (s *SegmentSink) RetryFinalize() error {
	if !s.finalized {
		return fmt.Errorf("obs: segment: RetryFinalize before Finalize")
	}
	return s.commit()
}

func (s *SegmentSink) err() error {
	if s.werr != nil {
		return fmt.Errorf("obs: segment: %w", s.werr)
	}
	if s.cerr != nil {
		return fmt.Errorf("obs: segment: commit: %w", s.cerr)
	}
	return nil
}

// SegmentLog is a loaded segmented spill: the manifest plus every sealed
// payload line in stream order (raw bytes).
type SegmentLog struct {
	Dir      string
	Manifest Manifest
	Lines    [][]byte
}

// LastCycle returns the highest cycle any sealed record reached.
func (m *Manifest) LastCycle() int64 {
	if m.Complete {
		return m.EndCycle
	}
	var last int64
	for _, seg := range m.Segments {
		if seg.LastCycle > last {
			last = seg.LastCycle
		}
	}
	return last
}

// LoadOptions tunes LoadSegmentsWith.
type LoadOptions struct {
	// SkipChecksums disables per-segment CRC verification (structural
	// validation still runs). An escape hatch for reading what parses from a
	// spill already known to be damaged — and the control arm of the
	// verification-overhead benchmark. Everything that answers questions
	// from a spill verifies.
	SkipChecksums bool
}

// LoadSegments reads a segmented spill directory back: the manifest, then
// every sealed segment it lists, validating headers, per-segment line
// counts, and — for manifests that record them — file lengths and CRC32C
// checksums, so damage surfaces as a typed *CorruptSegmentError instead of a
// wrong answer. Unlisted files (an orphaned sealed segment from a crash
// between rename and manifest rewrite, an incomplete spill's open .part) are
// ignored — the manifest is the sole source of durable truth.
func LoadSegments(dir string) (*SegmentLog, error) {
	return LoadSegmentsWith(dir, LoadOptions{})
}

// LoadSegmentsWith is LoadSegments with explicit options.
func LoadSegmentsWith(dir string, opt LoadOptions) (*SegmentLog, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	man, err := ParseManifest(raw)
	if err != nil {
		return nil, err
	}
	l := &SegmentLog{Dir: dir, Manifest: *man}
	for i, seg := range l.Manifest.Segments {
		if err := l.loadSegment(i, seg, opt); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *SegmentLog) loadSegment(idx int, seg SegmentInfo, opt LoadOptions) error {
	p := sealedParse(&l.Manifest, idx)
	p.skipCRC = opt.SkipChecksums
	// Each line aliases the segment's freshly read bytes, capped so an
	// append to one line can never write into the next.
	_, _, _, err := readSealed(l.Dir, seg, p, func(_ *ndjsonLine, raw []byte) {
		l.Lines = append(l.Lines, raw[:len(raw):len(raw)])
	})
	return err
}

// sealedParse is the rule set of the manifest's segment idx: its header
// agrees with the manifest, and only a complete spill's last segment ends in
// the manifest's fin line.
func sealedParse(man *Manifest, idx int) segmentParse {
	last := idx == len(man.Segments)-1 && man.Complete
	return segmentParse{
		header:   &ndjsonHeader{Version: 1, Design: man.Design, SampleEvery: man.SampleEvery},
		allowFin: last, needFin: last, endCycle: man.EndCycle,
	}
}

// ReadSegmentEvents parses one sealed NDJSON segment into its events (sample
// count returned alongside), enforcing the manifest entry's checksum and
// validating header and line structure the same way LoadSegments does —
// damage surfaces as a typed *CorruptSegmentError.
func ReadSegmentEvents(dir string, seg SegmentInfo) ([]Event, int, error) {
	var events []Event
	// Any header: the manifest's design is not in scope here.
	_, _, samples, err := readSealed(dir, seg, segmentParse{allowFin: true, endCycle: -1}, func(ln *ndjsonLine, _ []byte) {
		if ln.E != nil {
			events = append(events, *ln.E)
		}
	})
	return events, samples, err
}

// readSealed reads one sealed segment, checks its length and CRC32C against
// the manifest entry, and validates its structure — header agreement, one
// JSON payload object per line, the manifest's line count, fin placement —
// parsing each line once. Every failure is a *CorruptSegmentError carrying
// the byte offset, except an unreadable file's own error. fp is the
// fingerprint verdict CheckSegment reports: "missing", "bad" (length or
// CRC32C mismatch), "ok", or "unverified" (the manifest predates
// checksumming, or p.skipCRC). events and samples count the payload lines,
// each handed to visit (when set).
func readSealed(dir string, seg SegmentInfo, p segmentParse, visit func(*ndjsonLine, []byte)) (fp string, events, samples int, err error) {
	data, err := os.ReadFile(filepath.Join(dir, seg.File))
	if err != nil {
		if os.IsNotExist(err) {
			err = corrupt(dir, seg.File, -1, "missing", "sealed segment file", "no file")
		}
		return "missing", 0, 0, err
	}
	fp = "unverified"
	if seg.FileBytes != 0 || seg.CRC32C != 0 {
		if int64(len(data)) != seg.FileBytes {
			reason := "truncated"
			if int64(len(data)) > seg.FileBytes {
				reason = "structure"
			}
			return "bad", 0, 0, corrupt(dir, seg.File, min(int64(len(data)), seg.FileBytes), reason,
				fmt.Sprintf("%d bytes", seg.FileBytes), fmt.Sprintf("%d bytes", len(data)))
		}
		if !p.skipCRC {
			if got := Checksum(data); got != seg.CRC32C {
				return "bad", 0, 0, corrupt(dir, seg.File, 0, "checksum",
					fmt.Sprintf("crc32c %08x", seg.CRC32C), fmt.Sprintf("%08x", got))
			}
			fp = "ok"
		}
	}
	events, samples, err = parseSegment(dir, seg.File, data, seg.Lines, p, visit)
	return fp, events, samples, err
}

// parseSegment validates one sealed segment's bytes against p, expecting
// wantLines payload lines.
func parseSegment(dir, file string, data []byte, wantLines int, p segmentParse, visit func(*ndjsonLine, []byte)) (events, samples int, err error) {
	r := ndjsonReader{dir: dir, file: file, data: data}
	if err := r.header(p.header); err != nil {
		return 0, 0, err
	}
	err = r.payloads(p, wantLines, visit)
	return r.events, r.samples, err
}

// Feed streams the durable lines into sink in order, without finalizing —
// the caller decides whether the log's end is the run's end. The lines are
// read by the segment reader, so a line that is not exactly one event or
// sample is a *CorruptSegmentError.
func (l *SegmentLog) Feed(sink Sink) error {
	r := ndjsonReader{dir: l.Dir, file: "durable lines", lines: l.Lines}
	return r.feed(sink, segmentParse{endCycle: -1})
}

// Replay rebuilds the buffering record of a complete segmented spill —
// byte-identical, once serialized, to the originating run's Timeline and
// Series, exactly like ReplayNDJSON on a single-file spill.
func (l *SegmentLog) Replay() (*Timeline, *Series, error) {
	if !l.Manifest.Complete {
		return nil, nil, fmt.Errorf("obs: segment: log in %s is incomplete (crashed run?); recover it before replaying", l.Dir)
	}
	rec := NewRecorder(l.Manifest.Design, Config{SampleEvery: l.Manifest.SampleEvery})
	if err := l.Feed(rec); err != nil {
		return nil, nil, err
	}
	if err := rec.Finalize(l.Manifest.EndCycle); err != nil {
		return nil, nil, err
	}
	return rec.Timeline(), rec.Series(), nil
}
