// Command obscheck validates observability artifacts produced by oclprof:
// it parses a timeline (Perfetto trace_event JSON) and/or a metrics series,
// runs the structural validators, re-encodes each document, and checks the
// round trip is byte-identical — the codec contract scripts/verify.sh gates
// on. Exit status 0 means every given file is valid and stable.
//
// -fsck runs the durability scrubber over a segmented spill directory:
// every sealed segment's fingerprint is verified, commit debris is
// classified, and with -repair the recoverable damage is fixed in place —
// byte-identically, by re-executing the run spec the manifest records (any
// workload in the workload registry: oclprof's, oclmon's, simbench). Exit
// status 1 means damage remains.
//
// -export writes a spill directory's record to stdout as one NDJSON stream,
// the bytes oclprof -spill writes for the same run.
//
//	go run ./cmd/obscheck -timeline t.json -metrics m.json
//	go run ./cmd/obscheck -fsck spill/ -repair -fsck-report fsck.json
//	go run ./cmd/obscheck -export spill/ > run.ndjson
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"oclfpga/internal/obs"
	"oclfpga/internal/obs/analyze"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/scrub"
	"oclfpga/internal/workload"
)

var (
	flagTimeline = flag.String("timeline", "", "timeline file to validate")
	flagMetrics  = flag.String("metrics", "", "metrics-series file to validate")
	flagReport   = flag.String("report", "", "oclprof -json run report to validate (must be one JSON document)")
	flagAttr     = flag.String("attr", "", "stall-attribution file (oclprof -attr) to validate")
	flagPprof    = flag.String("pprof", "", "pprof stall profile (oclprof -pprof) to validate")
	flagDiff     = flag.String("diff", "", "diff report (oclprof -diff) to validate")
	flagSpill    = flag.String("spill", "", "NDJSON spill stream (oclprof -spill) to replay and validate")
	flagSpillDir = flag.String("spill-dir", "", "segmented spill directory (oclprof -spill-dir / oclmon) to stitch, replay, and validate")
	flagExport   = flag.String("export", "", "write this spill directory's record to stdout as one NDJSON stream (what oclprof -spill writes)")
	flagFsck     = flag.String("fsck", "", "scrub this spill directory: verify every fingerprint, classify damage, exit 1 if any")
	flagRepair   = flag.Bool("repair", false, "with -fsck: repair what the scrubber can (orphans, re-executable segments)")
	flagFsckOut  = flag.String("fsck-report", "", "with -fsck: write the machine-readable scrub report (JSON) to this file")
	flagQuiet    = flag.Bool("q", false, "suppress the per-file summary lines")
)

func main() {
	flag.Parse()
	if *flagTimeline == "" && *flagMetrics == "" && *flagReport == "" &&
		*flagAttr == "" && *flagPprof == "" && *flagDiff == "" &&
		*flagSpill == "" && *flagSpillDir == "" && *flagExport == "" && *flagFsck == "" {
		fmt.Fprintln(os.Stderr, "obscheck: nothing to check (pass -timeline, -metrics, -report, -attr, -pprof, -diff, -spill, -spill-dir, -export, and/or -fsck)")
		flag.Usage()
		os.Exit(2)
	}
	if *flagTimeline != "" {
		checkFile(*flagTimeline, checkTimeline)
	}
	if *flagMetrics != "" {
		checkFile(*flagMetrics, checkSeries)
	}
	if *flagReport != "" {
		checkFile(*flagReport, checkReport)
	}
	if *flagAttr != "" {
		checkFile(*flagAttr, checkAttr)
	}
	if *flagPprof != "" {
		checkFile(*flagPprof, checkPprof)
	}
	if *flagDiff != "" {
		checkFile(*flagDiff, checkDiff)
	}
	if *flagSpill != "" {
		checkFile(*flagSpill, checkSpill)
	}
	if *flagSpillDir != "" {
		summary, err := checkSpillDir(*flagSpillDir)
		if err != nil {
			log.Fatalf("%s: %v", *flagSpillDir, err)
		}
		if !*flagQuiet {
			fmt.Printf("%s: ok (%s)\n", *flagSpillDir, summary)
		}
	}
	if *flagExport != "" {
		if err := export(*flagExport, os.Stdout); err != nil {
			log.Fatalf("%s: export: %v", *flagExport, err)
		}
	}
	if *flagFsck != "" {
		if !fsck(*flagFsck, *flagRepair, *flagFsckOut) {
			os.Exit(1)
		}
	}
}

// fsckReport is the machine-readable scrub verdict -fsck-report emits — the
// artifact CI uploads from the disk-chaos smoke.
type fsckReport struct {
	Dir     string        `json:"dir"`
	Scan    *scrub.Report `json:"scan"`
	Repair  *scrub.Result `json:"repair,omitempty"`
	Healthy bool          `json:"healthy"`
	Time    string        `json:"time"`
}

// fsck scans (and with repair=true, heals) one spill directory, printing a
// classified verdict per finding. Returns true when the directory ends
// healthy.
func fsck(dir string, repair bool, reportOut string) bool {
	rep, err := scrub.Scan(dir)
	if err != nil {
		log.Fatalf("%s: fsck: %v", dir, err)
	}
	out := fsckReport{Dir: dir, Scan: rep, Time: time.Now().UTC().Format(time.RFC3339)}
	if !*flagQuiet {
		for _, c := range rep.Segments {
			state := "sealed"
			if c.Err != nil {
				state = "DAMAGED"
			}
			fmt.Printf("  %s: checksum %s, %d records (%d events, %d samples), %s\n",
				c.File, c.ChecksumState, c.Lines, c.Events, c.Samples, state)
		}
		for _, d := range rep.Damage {
			fmt.Printf("  !! %s: %s (%s) — repair: %s\n", d.File, d.Kind, d.Detail, d.Repair)
		}
		if rep.Quarantined != nil {
			fmt.Printf("  !! quarantined: %s\n", rep.Quarantined.Reason)
		}
	}
	healthy, remaining := rep.Healthy, rep.Damage
	if repair && !healthy {
		res, err := scrub.Repair(dir, workload.Rebuild)
		if res != nil {
			out.Repair = res
			remaining = res.Remaining
		}
		var me *workload.MetaError
		if errors.As(err, &me) {
			// The manifest records a run no re-execution reproduces: the
			// damage stays unrepairable, so the spill is quarantined.
			if qerr := scrub.Quarantine(dir, err.Error(), rep.Damage, out.Time); qerr != nil {
				fmt.Printf("%s: fsck: quarantine: %v\n", dir, qerr)
			}
		}
		if err != nil {
			fmt.Printf("%s: fsck: repair: %v\n", dir, err)
		} else {
			healthy = res.Healthy
			if !*flagQuiet {
				fmt.Printf("  repaired: %d orphans removed, %d segments re-executed\n",
					len(res.RemovedOrphans), len(res.Repaired))
			}
		}
	}
	out.Healthy = healthy
	if reportOut != "" {
		buf, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			log.Fatalf("%s: fsck: report: %v", dir, err)
		}
		if err := os.WriteFile(reportOut, append(buf, '\n'), 0o666); err != nil {
			log.Fatalf("%s: fsck: report: %v", dir, err)
		}
	}
	if !*flagQuiet {
		verdict := "healthy"
		if !healthy {
			verdict = fmt.Sprintf("UNHEALTHY (%d findings)", len(remaining))
		}
		fmt.Printf("%s: fsck %s (%d segments)\n", dir, verdict, len(rep.Segments))
	}
	return healthy
}

// segmentStats prints one integrity row per manifest segment — fingerprint
// verdict (ok / bad / missing), record counts, size, event cycle range —
// plus any unsealed .part files, which nothing reads. Verification reads the
// segment end to end; nothing is written.
func segmentStats(dir string, man *obs.Manifest) {
	for i, seg := range man.Segments {
		c := obs.CheckSegment(dir, man, i)
		cycles := ""
		if c.Err == nil && c.Events > 0 {
			if fl, err := obs.LoadSegFlat(dir, seg, nil); err == nil {
				idx := fl.Index()
				cycles = fmt.Sprintf(", cycles [%d,%d]", idx.FirstCycle, idx.LastCycle)
			}
		}
		fmt.Printf("  %s: checksum %s, %d records (%d events, %d samples), %d bytes%s, sealed\n",
			c.File, c.ChecksumState, c.Lines, c.Events, c.Samples, seg.FileBytes, cycles)
		if c.Err != nil {
			fmt.Printf("    !! %v\n", c.Err)
		}
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		part, ok := obs.IsSegmentFile(e.Name())
		if !ok || !part {
			continue
		}
		if st, err := e.Info(); err == nil {
			fmt.Printf("  %s: %d bytes, unsealed (.part — regenerated by recovery, never read)\n", e.Name(), st.Size())
		}
	}
}

// checkSpillDir loads a segmented spill, requires the manifest to mark a
// complete record, replays the stitched stream through a fresh recorder, and
// validates what it rebuilds. With -timeline given alongside, the replayed
// timeline's serialization must equal that file byte for byte — the same
// equivalence contract as -spill, across segment boundaries and the
// crash-recovery path that wrote them.
func checkSpillDir(dir string) (string, error) {
	man, err := obs.LoadManifest(dir)
	if err != nil {
		return "", err
	}
	if !*flagQuiet {
		// per-segment integrity first: it is what a damaged spill leaves to read
		segmentStats(dir, man)
	}
	slog, err := obs.LoadSegments(dir)
	if err != nil {
		return "", err
	}
	if !slog.Manifest.Complete {
		return "", fmt.Errorf("manifest does not mark a complete record (run crashed before finalize?)")
	}
	tl, series, err := slog.Replay()
	if err != nil {
		return "", err
	}
	compared, err := checkReplay(tl, series, "stitched")
	if err != nil {
		return "", err
	}
	if compared {
		return fmt.Sprintf("%d segments, %d lines stitched, byte-identical to %s",
			len(slog.Manifest.Segments), len(slog.Lines), *flagTimeline), nil
	}
	return fmt.Sprintf("%d segments, %d lines stitched, end cycle %d",
		len(slog.Manifest.Segments), len(slog.Lines), slog.Manifest.EndCycle), nil
}

// export writes a spill directory's sealed record to w as one NDJSON stream:
// the records fed through an NDJSONSink, finalized at the end cycle when the
// spill is complete (an incomplete spill's stream has no terminal line).
func export(dir string, w io.Writer) error {
	slog, err := obs.LoadSegments(dir)
	if err != nil {
		return err
	}
	sink := obs.NewNDJSONSink(w, slog.Manifest.Design, slog.Manifest.SampleEvery)
	slog.Feed(sink)
	if slog.Manifest.Complete {
		return sink.Finalize(slog.Manifest.EndCycle)
	}
	return sink.Flush()
}

func checkFile(path string, check func([]byte) (string, error)) {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	summary, err := check(raw)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if !*flagQuiet {
		fmt.Printf("%s: ok (%s)\n", path, summary)
	}
}

func checkTimeline(raw []byte) (string, error) {
	tl, err := obs.ReadTimeline(bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	if err := tl.Validate(); err != nil {
		return "", err
	}
	var re bytes.Buffer
	if err := obs.WriteTimeline(&re, tl); err != nil {
		return "", err
	}
	if !bytes.Equal(raw, re.Bytes()) {
		return "", fmt.Errorf("re-encoded timeline differs from input (%d vs %d bytes)", len(re.Bytes()), len(raw))
	}
	return fmt.Sprintf("%d events, %d ff-jumps, end cycle %d", len(tl.Events), len(tl.FFJumps), tl.EndCycle), nil
}

// checkReport accepts exactly one JSON value spanning the whole file — what
// oclprof -json promises on stdout.
func checkReport(raw []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	if dec.More() {
		return "", fmt.Errorf("trailing content after the first JSON document")
	}
	return fmt.Sprintf("%d top-level keys", len(v)), nil
}

func checkAttr(raw []byte) (string, error) {
	a, err := analyze.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	if err := a.Validate(); err != nil {
		return "", err
	}
	var re bytes.Buffer
	if err := analyze.WriteJSON(&re, a); err != nil {
		return "", err
	}
	if !bytes.Equal(raw, re.Bytes()) {
		return "", fmt.Errorf("re-encoded attribution differs from input (%d vs %d bytes)", len(re.Bytes()), len(raw))
	}
	return fmt.Sprintf("%d rows, %d stall cycles, critical path %d cycles",
		len(a.Rows), a.TotalStallCycles, a.CriticalCycles), nil
}

func checkDiff(raw []byte) (string, error) {
	r, err := diff.ReadReport(bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	if err := r.Validate(); err != nil {
		return "", err
	}
	var re bytes.Buffer
	if err := diff.WriteReport(&re, r); err != nil {
		return "", err
	}
	if !bytes.Equal(raw, re.Bytes()) {
		return "", fmt.Errorf("re-encoded diff report differs from input (%d vs %d bytes)", len(re.Bytes()), len(raw))
	}
	return fmt.Sprintf("%d rows, total stall delta %+d, verdict %s",
		len(r.Rows), r.TotalDelta, r.Verdict), nil
}

func checkPprof(raw []byte) (string, error) {
	sum, err := analyze.CheckPprof(raw)
	if err != nil {
		return "", err
	}
	return sum.String(), nil
}

// checkSpill replays the NDJSON stream through a fresh buffering recorder and
// validates what it rebuilds. With -timeline given alongside, the replayed
// timeline's serialization must equal that file byte for byte — the streaming
// path's equivalence contract.
func checkSpill(raw []byte) (string, error) {
	tl, series, err := obs.ReplayNDJSON(bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	compared, err := checkReplay(tl, series, "replayed")
	if err != nil {
		return "", err
	}
	if compared {
		return fmt.Sprintf("%d events replayed, byte-identical to %s", len(tl.Events), *flagTimeline), nil
	}
	return fmt.Sprintf("%d events, %d samples replayed", len(tl.Events), len(series.Samples)), nil
}

// checkReplay validates a replayed timeline and series and, with -timeline
// given, holds the timeline's serialization to that file byte for byte (what
// names the replay in the mismatch error). compared reports whether that
// comparison ran.
func checkReplay(tl *obs.Timeline, series *obs.Series, what string) (compared bool, err error) {
	if err := tl.Validate(); err != nil {
		return false, err
	}
	if err := series.Validate(); err != nil {
		return false, err
	}
	var re bytes.Buffer
	if err := obs.WriteTimeline(&re, tl); err != nil {
		return false, err
	}
	if *flagTimeline == "" {
		return false, nil
	}
	want, err := os.ReadFile(*flagTimeline)
	if err != nil {
		return false, err
	}
	if !bytes.Equal(want, re.Bytes()) {
		return false, fmt.Errorf("%s timeline differs from %s (%d vs %d bytes)",
			what, *flagTimeline, len(re.Bytes()), len(want))
	}
	return true, nil
}

func checkSeries(raw []byte) (string, error) {
	s, err := obs.ReadSeries(bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	if err := s.Validate(); err != nil {
		return "", err
	}
	var re bytes.Buffer
	if err := obs.WriteSeries(&re, s); err != nil {
		return "", err
	}
	if !bytes.Equal(raw, re.Bytes()) {
		return "", fmt.Errorf("re-encoded series differs from input (%d vs %d bytes)", len(re.Bytes()), len(raw))
	}
	return fmt.Sprintf("%d samples, every %d cycles", len(s.Samples), s.SampleEvery), nil
}
