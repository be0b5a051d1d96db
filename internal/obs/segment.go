package obs

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
)

// Durable segmented spill: the crash-safe form of the observability record.
// The stream is cut into size-rotated segments, each one OBSFLAT3 container
// (index.go) committed with temp-file + fsync + atomic rename and listed in a
// manifest (itself rewritten atomically). At any instant the directory
// therefore holds a durable, self-describing prefix of the run's record:
//
//	manifest.json         sealed-segment index + design/meta, atomically replaced
//	seg-000001.flat       sealed segment: one container
//	seg-000002.flat.part  segment being committed (ignored by recovery)
//
// The open segment is held in memory — its records, samples and string
// table, bounded by SegmentConfig.MaxBytes — and written only when it seals,
// so a process crash loses at most that segment, which nothing ever reads
// back. Because the simulator is deterministic, recovery is replay-based
// rather than journal-based: restart the workload from cycle 0 with a resume
// sink (NewResumeSink) that cuts the regenerated stream at the manifest's
// per-segment record counts, proves each cut against its sealed segment's
// fingerprint (the check repair makes, repair.go), and appends new segments
// where the sealed prefix ends. The stitched record is then byte-identical
// to an uninterrupted run's — the recovery invariant the chaos suite asserts
// with fast-forward on and off.
//
// Every sealed segment's manifest entry records the file's full length and
// CRC32C, so bit rot, truncation, and torn writes surface as a typed
// CorruptSegmentError on load — and so the scrubber can prove a regenerated
// replacement byte-identical before swapping it in (DESIGN.md §16). NDJSON
// is not a segment format: it is the stream NDJSONSink writes (oclprof
// -spill, and obscheck -export of a loaded spill) and ReplayNDJSON reads.

// SegmentInfo is one sealed segment's manifest entry.
type SegmentInfo struct {
	File string `json:"file"`
	// Lines counts payload records: events (fast-forward jumps included)
	// and samples.
	Lines int `json:"lines"`
	// Bytes is the payload records' encoded size in the container, what
	// SegmentConfig.MaxBytes bounds.
	Bytes     int64 `json:"bytes"`
	LastCycle int64 `json:"lastCycle"`
	// FileBytes/CRC32C fingerprint the container in full: the integrity
	// check every decoded segment is held to, and the one the repair engine
	// verifies regenerated segments against.
	FileBytes int64  `json:"fileBytes"`
	CRC32C    uint32 `json:"crc32c"`
	// HeadCRC32C fingerprints the container's head alone — magic, string
	// table and index section — so a query can trust a segment's index and
	// prune the segment without trusting its body.
	HeadCRC32C uint32 `json:"headCrc32c"`
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

// manifestVersion is the spill format this build writes and reads: OBSFLAT3
// container segments. Version 1 spills held NDJSON segments.
const manifestVersion = 2

// SpillVersionError refuses a spill directory written in another format
// version — a version-1 directory of NDJSON segments, say. Every reader of a
// spill directory returns it for such a manifest.
type SpillVersionError struct {
	Version int
}

func (e *SpillVersionError) Error() string {
	return fmt.Sprintf("obs: segment: spill format version %d is not supported (this build reads version %d, OBSFLAT3 segments)",
		e.Version, manifestVersion)
}

const manifestName = "manifest.json"

func segmentName(seq int) string { return fmt.Sprintf("seg-%06d.flat", seq) }

// PartName is the unsealed file an incomplete spill's writer commits its
// next segment through.
func PartName(man *Manifest) string { return segmentName(len(man.Segments)+1) + ".part" }

// IsSegmentFile reports whether name is a segment file: sealed, or with part
// set, unsealed.
func IsSegmentFile(name string) (part, ok bool) {
	name, part = strings.CutSuffix(name, ".part")
	var seq int
	_, err := fmt.Sscanf(name, "seg-%d.flat", &seq)
	return part, err == nil && seq > 0 && name == segmentName(seq)
}

// ParseManifest parses and validates manifest bytes: version (another one is
// a *SpillVersionError), segment naming (sequential seg-NNNNNN.flat — which
// also forecloses path traversal from an attacker-controlled spill dir), a
// fingerprint on every segment, and field sanity. Malformed input is an
// error, never a panic; the manifest fuzz target holds it to that.
func ParseManifest(raw []byte) (*Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("obs: segment: manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, &SpillVersionError{Version: man.Version}
	}
	if man.SampleEvery < 0 || man.EndCycle < 0 {
		return nil, fmt.Errorf("obs: segment: manifest: negative sampleEvery/endCycle")
	}
	for i, seg := range man.Segments {
		if seg.File != segmentName(i+1) {
			return nil, fmt.Errorf("obs: segment: manifest: segment %d named %q, want %q", i+1, seg.File, segmentName(i+1))
		}
		if seg.Lines < 0 || seg.Bytes < 0 || seg.LastCycle < 0 {
			return nil, fmt.Errorf("obs: segment: manifest: segment %s: negative size field", seg.File)
		}
		if seg.FileBytes <= 0 {
			return nil, fmt.Errorf("obs: segment: manifest: segment %s: no fingerprint", seg.File)
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
	// MaxLines rotates the open segment after this many payload records
	// (default 4096); MaxBytes after this many encoded payload bytes
	// (default 1MiB), which also bounds the open segment's memory.
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

// SegmentSink spills the event/sample stream into rotated, atomically
// committed container segments. Mid-stream write errors are sticky (the sink
// goes quiet, like NDJSONSink); commit-phase errors at Finalize are kept
// separate and can be retried with RetryFinalize — the hook the supervisor's
// backoff loop uses for transient IO failures.
type SegmentSink struct {
	cfg SegmentConfig
	man Manifest

	// prefix proves a resumed run's regenerated stream against the sealed
	// segments before anything lands (nil for a fresh run).
	prefix *sealedPrefix

	enc *flatBuilder // the open segment, nil until its first record
	buf []byte       // container encode buffer, reused across seals

	// pending is a sealed segment's entry whose container, in buf, awaits
	// its commit; written reports its .part already landed.
	pending *SegmentInfo
	written bool

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
		Version: manifestVersion, Design: cfg.Design, SampleEvery: cfg.SampleEvery, Meta: cfg.Meta,
	}}
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewResumeSink continues an interrupted segmented spill from its manifest
// alone: the regenerated stream is cut at the manifest's per-segment record
// counts and each cut must match its sealed segment's fingerprint (a
// mismatch, or a run that ends inside the sealed prefix, is a
// *CorruptSegmentError naming the segment), and every record after the
// sealed prefix is appended as new segments continuing the manifest, rotated
// by cfg. Sealed segments are never rewritten; the crashed run's open
// segment is regenerated, not read. A manifest of another format version is
// a *SpillVersionError.
func NewResumeSink(cfg SegmentConfig, man *Manifest) (*SegmentSink, error) {
	if man.Version != manifestVersion {
		return nil, &SpillVersionError{Version: man.Version}
	}
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

// Verified reports how many sealed-prefix payload records the resumed run
// has reproduced byte-identically so far.
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

// writeSynced durably writes buf as the file path: created, written,
// fsynced, closed — the first half of every segment commit, before its
// rename.
func writeSynced(fs VFS, path string, buf []byte) error {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// seal commits the open segment, with endCycle when it is a complete
// spill's last one (-1 otherwise): its container written to a .part,
// fsynced, closed and renamed, then a manifest rewrite listing it.
// Idempotent across retries — each completed stage is not redone.
func (s *SegmentSink) seal(endCycle int64) error {
	if s.enc != nil {
		info, buf := s.enc.finish(segmentName(len(s.man.Segments)+1), endCycle, s.buf)
		s.enc, s.buf, s.pending, s.written = nil, buf, &info, false
	}
	if s.pending != nil {
		p := filepath.Join(s.cfg.Dir, s.pending.File)
		if !s.written {
			if err := writeSynced(s.cfg.FS, p+".part", s.buf); err != nil {
				return err
			}
			s.written = true
		}
		if err := s.cfg.FS.Rename(p+".part", p); err != nil {
			return err
		}
		s.man.Segments = append(s.man.Segments, *s.pending)
		s.pending = nil
	}
	return s.writeManifest()
}

// target is the builder the next record lands in: the sealed prefix's while
// a resumed run regenerates it (those records are already durable), else the
// open segment's, started if needed. It is nil after a sticky error and
// after Finalize: the manifest is already published complete, so a late
// record is dropped rather than opening a segment that never seals.
func (s *SegmentSink) target() *flatBuilder {
	switch {
	case s.werr != nil || s.finalized:
		return nil
	case s.prefix != nil && s.prefix.b != nil:
		return s.prefix.b
	case s.enc == nil:
		s.enc = newFlatBuilder()
	}
	return s.enc
}

// landed closes what the record just added to b completed: a regenerated
// sealed segment, proven against its fingerprint, or the open segment once a
// size threshold trips.
func (s *SegmentSink) landed(b *flatBuilder) {
	if s.prefix != nil && b == s.prefix.b {
		s.prefix.advance()
		s.werr = s.prefix.err
		return
	}
	if b.lines() >= s.cfg.MaxLines || b.bytes() >= s.cfg.MaxBytes {
		if err := s.seal(-1); err != nil {
			s.werr = err
		}
	}
}

// Event implements Sink.
func (s *SegmentSink) Event(e Event) {
	if b := s.target(); b != nil {
		b.addEvent(&e)
		s.landed(b)
	}
}

// Sample implements Sink.
func (s *SegmentSink) Sample(sm Sample) {
	if b := s.target(); b != nil {
		b.addSample(&sm)
		s.landed(b)
	}
}

// Finalize seals the last segment carrying the run's end cycle and marks the
// manifest complete. Stream errors are returned as-is; commit errors are
// additionally retryable via RetryFinalize.
func (s *SegmentSink) Finalize(endCycle int64) error {
	if s.finalized {
		return s.err()
	}
	s.finalized = true
	s.endCycle = endCycle
	if s.werr == nil && s.prefix != nil {
		s.werr = s.prefix.end(endCycle)
	}
	if s.werr == nil && s.enc == nil {
		s.enc = newFlatBuilder()
	}
	return s.commit()
}

// commit seals the final segment and publishes the completed manifest.
// Completeness is set *before* the seal so its manifest write is the single
// atomic publish: there is no window where the durable manifest lists an
// end-cycle-bearing segment without being marked complete (a crash there
// would otherwise leave a spill that loads as corrupt instead of
// resumable).
func (s *SegmentSink) commit() error {
	if s.werr != nil {
		return fmt.Errorf("obs: segment: %w", s.werr)
	}
	s.cerr = nil
	s.man.Complete = true
	s.man.EndCycle = s.endCycle
	if err := s.seal(s.endCycle); err != nil {
		s.cerr = err
		return fmt.Errorf("obs: segment: commit: %w", err)
	}
	return nil
}

// RetryFinalize re-attempts the commit phase after a Finalize failure.
// Stream/data errors are permanent and returned unchanged; commit errors
// (a failed write, rename or manifest write) are retried from the failed
// stage.
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

// Payload is one sealed payload record of a loaded spill: the sample S when
// set, else the event E.
type Payload struct {
	E Event
	S *Sample
}

// SegmentLog is a loaded segmented spill: the manifest plus every sealed
// payload record in stream order.
type SegmentLog struct {
	Dir      string
	Manifest Manifest
	Lines    []Payload
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
	// SkipChecksums disables the per-segment whole-file CRC32C (the length
	// check and each container section's own checksum still run) — the
	// control arm of the verification-overhead benchmark. Everything that
	// answers questions from a spill verifies.
	SkipChecksums bool
}

// LoadSegments reads a segmented spill directory back: the manifest, then
// every sealed segment it lists, verifying each container's length and
// CRC32C against its entry and decoding it whole, so damage surfaces as a
// typed *CorruptSegmentError instead of a wrong answer. Unlisted files (an
// orphaned sealed segment from a crash between rename and manifest rewrite,
// an incomplete spill's .part) are ignored — the manifest is the sole
// source of durable truth. A manifest of another format version is a
// *SpillVersionError.
func LoadSegments(dir string) (*SegmentLog, error) {
	return LoadSegmentsWith(dir, LoadOptions{})
}

// LoadSegmentsWith is LoadSegments with explicit options.
func LoadSegmentsWith(dir string, opt LoadOptions) (*SegmentLog, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, seg := range man.Segments {
		n += seg.Lines
	}
	l := &SegmentLog{Dir: dir, Manifest: *man, Lines: make([]Payload, 0, n)}
	for i := range man.Segments {
		_, fl, err := sealedContainer(dir, man, i, !opt.SkipChecksums)
		if err != nil {
			return nil, err
		}
		l.Lines = fl.appendPayloads(l.Lines)
	}
	return l, nil
}

// sealedContainer reads the manifest's segment idx (readContainer) and holds
// its end cycle to the manifest: a complete spill's last segment carries the
// manifest's, every other segment none.
func sealedContainer(dir string, man *Manifest, idx int, crc bool) (string, *FlatLog, error) {
	seg := man.Segments[idx]
	fp, fl, err := readContainer(dir, seg, crc, nil)
	if err != nil {
		return fp, nil, err
	}
	want := int64(-1)
	if man.Complete && idx == len(man.Segments)-1 {
		want = man.EndCycle
	}
	if fl.EndCycle != want {
		return fp, nil, corrupt(dir, seg.File, -1, "structure",
			fmt.Sprintf("end cycle %d", want), fmt.Sprintf("end cycle %d", fl.EndCycle))
	}
	return fp, fl, nil
}

// Feed streams the durable records into sink in order, without finalizing —
// the caller decides whether the log's end is the run's end.
func (l *SegmentLog) Feed(sink Sink) {
	for i := range l.Lines {
		if p := &l.Lines[i]; p.S != nil {
			sink.Sample(*p.S)
		} else {
			sink.Event(p.E)
		}
	}
}

// Replay rebuilds the buffering record of a complete segmented spill —
// byte-identical, once serialized, to the originating run's Timeline and
// Series.
func (l *SegmentLog) Replay() (*Timeline, *Series, error) {
	if !l.Manifest.Complete {
		return nil, nil, fmt.Errorf("obs: segment: log in %s is incomplete (crashed run?); recover it before replaying", l.Dir)
	}
	rec := NewRecorder(l.Manifest.Design, Config{SampleEvery: l.Manifest.SampleEvery})
	l.Feed(rec)
	if err := rec.Finalize(l.Manifest.EndCycle); err != nil {
		return nil, nil, err
	}
	return rec.Timeline(), rec.Series(), nil
}
