package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"oclfpga/internal/experiments"
	"oclfpga/internal/hls"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/obs/scrub"
)

// spill-read: debugging over recorded runs. Set-up writes a baseline spill
// and a variant (the same design on slower DRAM, with its own seed-chosen
// input) at the shipped rotation defaults; each op loads the baseline with
// CRC verification, answers a seed-chosen narrow query, diffs baseline
// against variant, and scrubs the baseline. No simulation runs in the op.
const srItems = 1536

// srVariantMem is the variant's DRAM: a slower row activate, so the diff has
// real deltas to report.
var srVariantMem = mem.Config{RowHitLat: 60, RowMissLat: 230}

// srKinds are the event kinds a query may select.
var srKinds = []string{obs.KindChanStall, obs.KindLineFetch, obs.KindCheckpoint}

type spillRead struct {
	e          *env
	base, vari string
	q          query.Query
	wantCount  int
	wantLines  int
	wantReport []byte
	setups     int
}

func newSpillRead(e *env) bench { return &spillRead{e: e} }

func (s *spillRead) setup() error {
	rng := s.e.newRNG()
	s.setups++
	dir := filepath.Join(s.e.root, "fixtures-"+strconv.Itoa(s.setups))
	t0 := time.Now()
	d, err := experiments.CompileSimBench(srItems)
	if err != nil {
		return err
	}
	s.e.compiled(t0)
	base, vari := filepath.Join(dir, "base"), filepath.Join(dir, "variant")
	end, err := writeFixture(d, base, pcInput(rng, srItems), pcMem)
	if err != nil {
		return err
	}
	if _, err := writeFixture(d, vari, pcInput(rng, srItems), srVariantMem); err != nil {
		return err
	}
	// A narrow query: one kind over a tenth of the run.
	from := rng.Int63n(end - end/10)
	q := query.Query{Kind: srKinds[rng.Intn(len(srKinds))], From: from, To: from + end/10, HasRange: true}
	want, err := query.ScanAll(base, q)
	if err != nil {
		return err
	}
	rep, _, _, err := diff.CompareSpills(base, vari, diff.DefaultThresholds())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := diff.WriteReport(&buf, rep); err != nil {
		return err
	}
	man, err := obs.LoadManifest(base)
	if err != nil {
		return err
	}
	lines := 0
	for _, seg := range man.Segments {
		lines += seg.Lines
	}
	if s.base != "" {
		os.RemoveAll(filepath.Dir(s.base))
	}
	s.base, s.vari, s.q = base, vari, q
	s.wantCount, s.wantLines, s.wantReport = len(want.Events), lines, buf.Bytes()
	return nil
}

// writeFixture runs the producer/consumer design into a fresh segmented
// spill and returns the run's end cycle.
func writeFixture(d *hls.Design, dir string, src []int64, mc mem.Config) (int64, error) {
	seg, err := obs.NewSegmentSink(obs.SegmentConfig{Dir: dir, Design: "pcstall", SampleEvery: sampleEvery})
	if err != nil {
		return 0, err
	}
	m, dst, err := newPCMachine(d, src, mc, &obs.Config{SampleEvery: sampleEvery, CheckpointEvery: checkpointEvy, Sink: seg})
	if err != nil {
		return 0, err
	}
	if err := m.Run(); err != nil {
		return 0, err
	}
	if err := seg.Finalize(m.Cycle()); err != nil {
		return 0, err
	}
	return m.Cycle(), checkOutput(dst.Data, pcExpected(src))
}

func (s *spillRead) close() {}

// srRun is one op's results.
type srRun struct {
	log    *obs.SegmentLog
	res    *query.Result
	rep    *diff.Report
	sa, sb *diff.SpillSide
	scan   *scrub.Report
}

func (s *spillRead) op(l *ledger) (opOut, error) {
	r := &srRun{}
	var err error
	c := s.e.startOp(l)
	l.time("obs.load", func() { r.log, err = obs.LoadSegments(s.base) })
	if err == nil {
		l.time("query.run", func() { r.res, err = query.Run(s.base, s.q) })
	}
	if err == nil {
		l.time("diff.compare", func() {
			r.rep, r.sa, r.sb, err = diff.CompareSpills(s.base, s.vari, diff.DefaultThresholds())
		})
	}
	if err == nil {
		l.time("scrub.scan", func() { r.scan, err = scrub.Scan(s.base) })
	}
	st := s.e.stopOp(l, c)
	if err != nil {
		return opOut{}, err
	}
	return s.check(l, r, st)
}

// check runs after the op's clock stops: the query agrees with set-up's
// full scan, the diff report is byte-equal to set-up's, the load returned
// every line, and the scan finds no damage.
func (s *spillRead) check(l *ledger, r *srRun, st opStats) (opOut, error) {
	if len(r.res.Events) != s.wantCount {
		return opOut{}, fmt.Errorf("query %q matched %d events, full scan %d", s.q.String(), len(r.res.Events), s.wantCount)
	}
	var buf bytes.Buffer
	if err := diff.WriteReport(&buf, r.rep); err != nil {
		return opOut{}, err
	}
	if !bytes.Equal(buf.Bytes(), s.wantReport) {
		return opOut{}, fmt.Errorf("diff report differs from set-up's")
	}
	if len(r.log.Lines) != s.wantLines {
		return opOut{}, fmt.Errorf("loaded %d lines, manifest lists %d", len(r.log.Lines), s.wantLines)
	}
	if !r.scan.Healthy || len(r.scan.Damage) > 0 {
		return opOut{}, fmt.Errorf("scrub found damage: %+v", r.scan.Damage)
	}
	out := opOut{opStats: st, counts: map[string]int64{
		"obs.lines": int64(len(r.log.Lines)), "query.events": int64(len(r.res.Events)),
		"query.segments_read": int64(r.res.SegmentsRead), "diff.segments_read": int64(r.sa.SegmentsRead + r.sb.SegmentsRead),
	}}
	if l != nil {
		out.layers = map[string]float64{
			"query.segments_read_pct": 100 * float64(r.res.SegmentsRead) / float64(r.res.SegmentsTotal),
			"diff.segments_read_pct": 100 * float64(r.sa.SegmentsRead+r.sb.SegmentsRead) /
				float64(r.sa.SegmentsTotal+r.sb.SegmentsTotal),
		}
	}
	return out, nil
}
