package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
// A process crash loses at most the torn tail of the .part segment: recovery
// salvages its complete-line prefix (verified against the re-executed stream
// before anything trusts it) and truncates the rest with a counted warning.
// Because the simulator is deterministic, recovery is replay-based rather
// than journal-based: restart the workload from cycle 0 with a resume sink
// (NewResumeSink) that verifies the regenerated stream byte-for-byte against
// the durable prefix and starts appending new segments where the prefix ends.
// The stitched record is then byte-identical to an uninterrupted run's — the
// recovery invariant the chaos suite asserts with fast-forward on and off.
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

// crcWriter tees bytes that actually reached the file into a running CRC32C
// and length — the seal-time fingerprint recorded in the manifest. Only the
// successfully written prefix is hashed, so a short write leaves the CRC
// describing what is really on disk.
type crcWriter struct {
	f   File
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}

// SegmentSink spills the event/sample stream into rotated, atomically
// committed NDJSON segments. Mid-stream write errors are sticky (the sink
// goes quiet, like NDJSONSink); commit-phase errors at Finalize are kept
// separate and can be retried with RetryFinalize — the hook the supervisor's
// backoff loop uses for transient IO failures.
type SegmentSink struct {
	cfg SegmentConfig
	man Manifest

	// verify is the durable prefix a resume sink checks instead of rewriting;
	// vpos is the next line to verify. The tail of verify from salvageStart on
	// was salvaged from an unsealed .part segment: those lines are untrusted
	// hints — they are re-appended durably after verification, and a
	// divergence there discards the rest of the salvage instead of failing.
	verify       [][]byte
	vpos         int
	salvageStart int
	salvageDrop  int

	f       File
	cw      *crcWriter
	bw      *bufio.Writer
	line    []byte // reused encode buffer: steady-state lines allocate nothing
	lines   int
	bytes   int64
	last    int64
	pending *SegmentInfo // closed .part awaiting rename + manifest commit

	// art accumulates the open segment's sidecar index + flat encoding
	// (index.go); pendingArt is the staged pair sealed alongside pending.
	// Sidecars are caches — their writes are best-effort and happen only
	// after the segment itself is durably renamed.
	art        *segIndexBuilder
	pendingArt *stagedArtifacts

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

// NewResumeSink continues an interrupted segmented spill: the first
// len(log.Lines) records the run regenerates are byte-compared against the
// durable prefix (a mismatch in the sealed prefix is a replay-divergence
// error — the workload was not rebuilt identically), and every record after
// the prefix is appended as new segments continuing the manifest. Durable
// segments are never rewritten; lines salvaged from the torn .part tail are
// verified and re-landed in the new open segment.
func NewResumeSink(cfg SegmentConfig, log *SegmentLog) (*SegmentSink, error) {
	if log.Manifest.Complete {
		return nil, fmt.Errorf("obs: segment: log in %s is complete; nothing to resume", cfg.Dir)
	}
	cfg.fill()
	cfg.Design = log.Manifest.Design
	cfg.SampleEvery = log.Manifest.SampleEvery
	cfg.Meta = log.Manifest.Meta
	s := &SegmentSink{cfg: cfg, man: log.Manifest, verify: log.Lines, salvageStart: len(log.Lines)}
	if log.Salvaged != nil {
		s.salvageStart = len(log.Lines) - log.Salvaged.Lines
	}
	return s, nil
}

// Verified reports how many durable-prefix lines the resumed run has
// reproduced byte-identically so far.
func (s *SegmentSink) Verified() int { return s.vpos }

// SalvageDropped reports how many lines salvaged from the torn .part tail
// the re-executed stream contradicted and recovery therefore discarded.
func (s *SegmentSink) SalvageDropped() int { return s.salvageDrop }

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
	s.cw = &crcWriter{f: f}
	s.bw = bufio.NewWriter(s.cw)
	s.lines, s.bytes, s.last = 0, 0, 0
	s.art = newSegIndexBuilder()
	return putLine(s.bw, appendHeaderLine(nil, s.cfg.Design, s.cfg.SampleEvery))
}

// seal commits the open segment: flush, fsync, close, atomic rename, and a
// manifest rewrite listing it. Idempotent across retries — each completed
// stage is not redone.
func (s *SegmentSink) seal() error {
	if s.f != nil {
		if err := s.bw.Flush(); err != nil {
			return err
		}
		if err := s.f.Sync(); err != nil {
			return err
		}
		name := segmentName(len(s.man.Segments) + 1)
		info := &SegmentInfo{
			File: name, Lines: s.lines, Bytes: s.bytes, LastCycle: s.last,
			FileBytes: s.cw.n, CRC32C: s.cw.crc,
		}
		if err := s.f.Close(); err != nil {
			s.f, s.cw, s.bw = nil, nil, nil
			return err
		}
		s.f, s.cw, s.bw = nil, nil, nil
		s.pending = info
		if s.art != nil {
			idx, flat := s.art.finish(*info)
			s.pendingArt = &stagedArtifacts{idx: idx, flat: flat}
			s.art = nil
		}
	}
	if s.pending != nil {
		p := filepath.Join(s.cfg.Dir, s.pending.File)
		if err := s.cfg.FS.Rename(p+".part", p); err != nil {
			return err
		}
		s.man.Segments = append(s.man.Segments, *s.pending)
		s.pending = nil
		if s.pendingArt != nil {
			// Cache write: a failure degrades to an on-demand rebuild later.
			_ = writeSegArtifactsFS(s.cfg.FS, s.cfg.Dir, s.pendingArt.idx, s.pendingArt.flat)
			s.pendingArt = nil
		}
	}
	return s.writeManifest()
}

type stagedArtifacts struct {
	idx  SegIndex
	flat *FlatLog
}

// append lands one encoded line and reports whether it was appended to
// the open segment — false while verifying the sealed durable prefix (a
// resumed run's replayed lines must not re-feed the index builder) or after
// a sticky error; true for salvaged-tail lines, which are re-landed durably.
// Rotation is the caller's business (maybeRotate), so the builder can
// observe the line before its segment seals. Lines arriving after Finalize
// are dropped: the manifest is already published complete, and lazily
// opening a fresh segment for them would leave a stray never-sealed .part.
func (s *SegmentSink) append(line []byte, cycle int64) bool {
	if s.werr != nil || s.finalized {
		return false
	}
	if s.vpos < len(s.verify) {
		match := string(line) == string(s.verify[s.vpos])
		switch {
		case match && s.vpos < s.salvageStart:
			// Sealed-prefix line: verified, already durable.
			s.vpos++
			return false
		case match:
			// Salvaged .part line: verified; fall through and re-land it.
			s.vpos++
		case s.vpos < s.salvageStart:
			s.werr = fmt.Errorf("replay diverged from durable prefix at line %d: re-executed run produced %q, spill holds %q",
				s.vpos, line, s.verify[s.vpos])
			return false
		default:
			// Divergence inside the salvaged (unsealed, unchecksummed) tail:
			// the torn .part lied — discard the rest of the salvage and land
			// the regenerated truth instead.
			s.salvageDrop += len(s.verify) - s.vpos
			s.verify = s.verify[:s.vpos]
		}
	}
	if s.f == nil {
		if err := s.open(); err != nil {
			s.werr = err
			return false
		}
	}
	if err := putLine(s.bw, line); err != nil {
		s.werr = err
		return false
	}
	s.lines++
	s.bytes += int64(len(line)) + 1
	if cycle > s.last {
		s.last = cycle
	}
	return true
}

// maybeRotate seals the open segment once a size threshold trips.
func (s *SegmentSink) maybeRotate() {
	if s.werr != nil || s.f == nil {
		return
	}
	if s.lines >= s.cfg.MaxLines || s.bytes >= s.cfg.MaxBytes {
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
	if s.append(s.line, e.End) {
		s.art.addEvent(&e)
	}
	s.maybeRotate()
}

// Sample implements Sink.
func (s *SegmentSink) Sample(sm Sample) {
	if s.werr != nil {
		return
	}
	s.line = appendSampleLine(s.line[:0], &sm)
	if s.append(s.line, sm.Cycle) {
		s.art.addSample()
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
	if s.werr == nil && s.vpos < len(s.verify) {
		if s.vpos >= s.salvageStart {
			// Only salvaged-tail lines remain unverified: the torn .part held
			// more than the run regenerates — distrust and drop them.
			s.salvageDrop += len(s.verify) - s.vpos
			s.verify = s.verify[:s.vpos]
		} else {
			s.werr = fmt.Errorf("replay ended after %d of %d durable lines; re-executed run is shorter than the spill",
				s.vpos, len(s.verify))
		}
	}
	if s.werr == nil {
		if s.f == nil {
			if err := s.open(); err != nil {
				s.werr = err
			}
		}
		if s.werr == nil {
			s.line = appendFinLine(s.line[:0], endCycle)
			s.werr = putLine(s.bw, s.line)
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

// TailSalvage describes what recovery pulled out of the crashed run's
// unsealed .part segment: how many complete payload lines were salvaged and
// how many trailing bytes were truncated as torn. It is the counted warning
// the satellite of DESIGN.md §16 specifies — salvage is reported, never
// silent.
type TailSalvage struct {
	// File is the .part file the tail came from.
	File string `json:"file"`
	// Lines is how many complete payload lines were salvaged.
	Lines int `json:"lines"`
	// DroppedBytes counts trailing bytes truncated at the last complete
	// record (a torn line, or bytes after an unexpected line).
	DroppedBytes int `json:"droppedBytes"`
	// Truncated reports whether anything was dropped.
	Truncated bool `json:"truncated"`
}

// SegmentLog is a loaded segmented spill: the manifest plus every durable
// payload line in stream order (raw bytes — the currency of the resume
// sink's byte-prefix verification). For an incomplete (crashed) spill, the
// complete-line prefix of the unsealed .part segment is salvaged onto the
// end of Lines and described by Salvaged.
type SegmentLog struct {
	Dir      string
	Manifest Manifest
	Lines    [][]byte
	Salvaged *TailSalvage
}

// LastCycle returns the highest cycle any durable record reached.
func (l *SegmentLog) LastCycle() int64 {
	if l.Manifest.Complete {
		return l.Manifest.EndCycle
	}
	var last int64
	for _, seg := range l.Manifest.Segments {
		if seg.LastCycle > last {
			last = seg.LastCycle
		}
	}
	return last
}

// LoadOptions tunes LoadSegmentsWith.
type LoadOptions struct {
	// SkipChecksums disables per-segment CRC verification (structural
	// validation still runs). An escape hatch for salvaging what parses from
	// a spill already known to be damaged — and the control arm of the
	// verification-overhead benchmark. Everything that answers questions
	// from a spill verifies.
	SkipChecksums bool
}

// LoadSegments reads a segmented spill directory back: the manifest, then
// every sealed segment it lists, validating headers, per-segment line
// counts, and — for manifests that record them — file lengths and CRC32C
// checksums, so damage surfaces as a typed *CorruptSegmentError instead of a
// wrong answer. Unlisted files (an orphaned sealed segment from a crash
// between rename and manifest rewrite) are ignored — the manifest is the
// sole source of durable truth — except the incomplete spill's own .part
// tail, whose complete-line prefix is salvaged (see TailSalvage).
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
	if !l.Manifest.Complete {
		if err := l.salvagePart(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *SegmentLog) loadSegment(idx int, seg SegmentInfo, opt LoadOptions) error {
	data, err := os.ReadFile(filepath.Join(l.Dir, seg.File))
	if err != nil {
		if os.IsNotExist(err) {
			return corrupt(l.Dir, seg.File, -1, "missing", "sealed segment file", "no file")
		}
		return err
	}
	fingerprinted := seg.FileBytes != 0 || seg.CRC32C != 0
	if fingerprinted {
		if int64(len(data)) != seg.FileBytes {
			reason := "truncated"
			if int64(len(data)) > seg.FileBytes {
				reason = "structure"
			}
			return corrupt(l.Dir, seg.File, int64(min64(len(data), seg.FileBytes)), reason,
				fmt.Sprintf("%d bytes", seg.FileBytes), fmt.Sprintf("%d bytes", len(data)))
		}
		if !opt.SkipChecksums {
			if got := Checksum(data); got != seg.CRC32C {
				return corrupt(l.Dir, seg.File, 0, "checksum",
					fmt.Sprintf("crc32c %08x", seg.CRC32C), fmt.Sprintf("%08x", got))
			}
		}
	}
	lines, _, _, err := parseSegment(l.Dir, seg.File, data, segmentParse{
		design: l.Manifest.Design, sampleEvery: l.Manifest.SampleEvery,
		wantLines: seg.Lines,
		allowFin:  idx == len(l.Manifest.Segments)-1 && l.Manifest.Complete,
		needFin:   idx == len(l.Manifest.Segments)-1 && l.Manifest.Complete,
		endCycle:  l.Manifest.EndCycle,
	})
	if err != nil {
		return err
	}
	l.Lines = append(l.Lines, lines...)
	return nil
}

// segmentParse configures parseSegment's structural validation.
type segmentParse struct {
	// anyHeader accepts any version-1 header; otherwise design/sampleEvery
	// must agree with the manifest.
	anyHeader   bool
	design      string
	sampleEvery int64
	// wantLines is the expected payload line count (-1 to skip the check).
	wantLines int
	allowFin  bool
	needFin   bool
	// endCycle is the fin line's required cycle (-1 to skip the check).
	endCycle int64
}

// parseSegment validates one sealed segment's bytes — header agreement, one
// JSON payload object per line, fin placement — returning the payload lines.
// Every failure is a *CorruptSegmentError carrying the byte offset.
func parseSegment(dir, file string, data []byte, p segmentParse) (lines [][]byte, samples int, events int, err error) {
	off := int64(0)
	next := func() ([]byte, int64, bool) {
		if len(data) == 0 {
			return nil, off, false
		}
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return nil, off, false // torn final line: handled by caller state
		}
		line, start := data[:i], off
		data = data[i+1:]
		off += int64(i) + 1
		return line, start, true
	}
	hdrLine, hdrOff, ok := next()
	if !ok {
		return nil, 0, 0, corrupt(dir, file, hdrOff, "truncated", "header line", "end of file")
	}
	var hdr ndjsonHeader
	if err := json.Unmarshal(hdrLine, &hdr); err != nil {
		return nil, 0, 0, corrupt(dir, file, hdrOff, "garbage", "header line", err.Error())
	}
	if hdr.Version != 1 || (!p.anyHeader && (hdr.Design != p.design || hdr.SampleEvery != p.sampleEvery)) {
		return nil, 0, 0, corrupt(dir, file, hdrOff, "structure",
			fmt.Sprintf("header design %q sampleEvery %d", p.design, p.sampleEvery),
			fmt.Sprintf("%+v", hdr))
	}
	sawFin := false
	for {
		line, start, ok := next()
		if !ok {
			if len(data) > 0 {
				return nil, 0, 0, corrupt(dir, file, start, "truncated", "newline-terminated line",
					fmt.Sprintf("%d trailing bytes", len(data)))
			}
			break
		}
		if sawFin {
			return nil, 0, 0, corrupt(dir, file, start, "structure", "end of file after fin line", "more lines")
		}
		var ln ndjsonLine
		if err := json.Unmarshal(line, &ln); err != nil {
			return nil, 0, 0, corrupt(dir, file, start, "garbage", "payload line", err.Error())
		}
		switch {
		case ln.Fin != nil:
			if !p.allowFin {
				return nil, 0, 0, corrupt(dir, file, start, "structure", "no fin line here", "fin line")
			}
			if p.endCycle >= 0 && ln.Fin.EndCycle != p.endCycle {
				return nil, 0, 0, corrupt(dir, file, start, "structure",
					fmt.Sprintf("fin cycle %d", p.endCycle), fmt.Sprintf("fin cycle %d", ln.Fin.EndCycle))
			}
			sawFin = true
		case ln.E != nil:
			lines = append(lines, append([]byte(nil), line...))
			events++
		case ln.S != nil:
			lines = append(lines, append([]byte(nil), line...))
			samples++
		default:
			return nil, 0, 0, corrupt(dir, file, start, "garbage", "event/sample/fin payload", "no payload")
		}
	}
	if p.wantLines >= 0 && len(lines) != p.wantLines {
		return nil, 0, 0, corrupt(dir, file, off, "structure",
			fmt.Sprintf("%d payload lines (manifest)", p.wantLines), fmt.Sprintf("%d payload lines (sealed segment corrupt)", len(lines)))
	}
	if p.needFin && !sawFin {
		return nil, 0, 0, corrupt(dir, file, off, "structure", "fin line (manifest complete)", "no fin line")
	}
	return lines, samples, events, nil
}

// salvagePart recovers the complete-line prefix of the crashed run's open
// .part segment: a valid header plus every complete, parseable payload line
// before the torn tail. The salvage is untrusted (no checksum seals it) — a
// resume sink byte-verifies each salvaged line against the re-executed
// stream before re-landing it durably, and discards the salvage from the
// first contradiction. A .part that does not even start with the right
// header is ignored wholesale (it predates the manifest, or is garbage).
func (l *SegmentLog) salvagePart() error {
	name := segmentName(len(l.Manifest.Segments)+1) + ".part"
	data, err := os.ReadFile(filepath.Join(l.Dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	sal := &TailSalvage{File: name}
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil // not even a complete header line: nothing salvageable
	}
	var hdr ndjsonHeader
	if err := json.Unmarshal(data[:i], &hdr); err != nil ||
		hdr.Version != 1 || hdr.Design != l.Manifest.Design || hdr.SampleEvery != l.Manifest.SampleEvery {
		return nil // foreign or garbage .part: ignore, recovery regenerates it
	}
	data = data[i+1:]
	var lines [][]byte
	for len(data) > 0 {
		j := bytes.IndexByte(data, '\n')
		if j < 0 {
			sal.DroppedBytes += len(data)
			sal.Truncated = true
			break
		}
		line := data[:j]
		var ln ndjsonLine
		if err := json.Unmarshal(line, &ln); err != nil || (ln.E == nil && ln.S == nil && ln.Fin == nil) {
			sal.DroppedBytes += len(data)
			sal.Truncated = true
			break
		}
		if ln.Fin != nil {
			// The run finished but its commit never landed: the fin line is
			// regenerated at Finalize, not salvaged.
			break
		}
		lines = append(lines, append([]byte(nil), line...))
		data = data[j+1:]
	}
	if len(lines) == 0 && !sal.Truncated {
		return nil
	}
	sal.Lines = len(lines)
	l.Lines = append(l.Lines, lines...)
	l.Salvaged = sal
	return nil
}

func min64(a int, b int64) int64 {
	if int64(a) < b {
		return int64(a)
	}
	return b
}

// Feed streams the durable lines into sink in order, without finalizing —
// the caller decides whether the log's end is the run's end.
func (l *SegmentLog) Feed(sink Sink) error {
	for i, raw := range l.Lines {
		var ln ndjsonLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return fmt.Errorf("obs: segment: durable line %d: %w", i, err)
		}
		switch {
		case ln.E != nil:
			sink.Event(*ln.E)
		case ln.S != nil:
			sink.Sample(*ln.S)
		}
	}
	return nil
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
