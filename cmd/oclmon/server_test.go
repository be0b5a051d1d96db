package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"oclfpga/internal/obs"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/obs/scrub"
	"oclfpga/internal/sim"
	"oclfpga/internal/supervise"
	"oclfpga/internal/workload"
)

// launchWorkload builds the oclmon workload's spec for n items on a fresh
// machine recording into sink (nil: buffered only) — the recovery tests drive
// it by hand.
func launchWorkload(t *testing.T, n int, sink obs.Sink) *sim.Machine {
	t.Helper()
	spec := workload.RunSpec{Workload: "oclmon", N: n, SampleEvery: 1000}
	r, err := spec.Build(spec.Observe(sink))
	if err != nil {
		t.Fatal(err)
	}
	return r.M
}

func waitState(t *testing.T, srv *server, id string, want supervise.State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		r := srv.get(id)
		if r != nil {
			if st, _ := r.status(); st == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	r := srv.get(id)
	if r == nil {
		t.Fatalf("run %s never appeared", id)
	}
	st, out := r.status()
	t.Fatalf("run %s stuck in %s (outcome %+v), want %s", id, st, out, want)
}

func TestOverloadShedsAndStaysResponsive(t *testing.T) {
	release := make(chan struct{})
	cfg := serverConfig{n: 64, sampleEvery: 1000}
	cfg.startHook = func(n int) func() (*sim.Machine, error) {
		return func() (*sim.Machine, error) {
			<-release
			return nil, errors.New("released")
		}
	}
	sup := supervise.New(supervise.Config{Slots: 1, Queue: 1})
	srv := newServer(cfg, sup)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	defer close(release)

	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/runs", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Slot + queue fill; the slot's run must have been picked up before the
	// queue slot frees, so poll until one run is executing.
	if got := post().StatusCode; got != http.StatusAccepted {
		t.Fatalf("first submit = %d", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sup.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the run")
		}
		time.Sleep(time.Millisecond)
	}
	if got := post().StatusCode; got != http.StatusAccepted {
		t.Fatalf("queued submit = %d", got)
	}

	// Overload: the next submission sheds with 429 and a Retry-After.
	resp, err := http.Post(ts.URL+"/runs", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The service stays responsive while saturated: /healthz is 200, /readyz
	// reports the backpressure, /metrics still serves.
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 503, "/metrics": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d (%s), want %d", path, resp.StatusCode, body, want)
		}
	}
	body := scrape(t, ts.URL+"/metrics")
	if !strings.Contains(body, "oclmon_submissions_shed_total 1") {
		t.Fatalf("shed counter missing:\n%s", grepMetrics(body, "shed"))
	}
	// The shed submission left no registry entry behind.
	if n := len(srv.allRuns()); n != 2 {
		t.Fatalf("registry holds %d runs, want 2", n)
	}
}

func TestBreakerQuarantinesWorkload(t *testing.T) {
	cfg := serverConfig{n: 64, sampleEvery: 1000}
	cfg.startHook = func(n int) func() (*sim.Machine, error) {
		return func() (*sim.Machine, error) { return nil, errors.New("no bitstream") }
	}
	sup := supervise.New(supervise.Config{Slots: 1, Breaker: supervise.BreakerConfig{Threshold: 1, Cooldown: time.Hour}})
	srv := newServer(cfg, sup)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/runs", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	waitState(t, srv, "run1", supervise.StateFailed)

	resp, err = http.Post(ts.URL+"/runs", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined submit = %d (%s), want 503", resp.StatusCode, body)
	}
	// The quarantined run is recorded in its terminal state.
	r := srv.get("run2")
	if r == nil {
		t.Fatal("quarantined run not in registry")
	}
	if st, _ := r.status(); st != supervise.StateQuarantined {
		t.Fatalf("state = %s", st)
	}
	if !strings.Contains(scrape(t, ts.URL+"/metrics"), "oclmon_runs_quarantined_total 1") {
		t.Fatal("quarantine counter missing")
	}
}

// slowReader throttles a reader to 1 KiB per millisecond, far below the
// rate a run records at.
type slowReader struct{ r io.Reader }

func (s slowReader) Read(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return s.r.Read(p[:min(len(p), 1024)])
}

// pipeResponse is an http.ResponseWriter whose body goes through an io.Pipe:
// each write blocks until the client reads it, with no socket buffer in
// between to absorb a lagging client.
type pipeResponse struct {
	*io.PipeWriter
	header http.Header
}

func (p pipeResponse) Header() http.Header { return p.header }
func (pipeResponse) WriteHeader(int)       {}
func (pipeResponse) Flush()                {}

// TestSlowSSEClientReceivesEveryFrame pins the lossless tail: a client that
// reads far slower than the run records still receives every frame of a
// spilled run, with contiguous ids, each payload byte-identical to the
// event's spill line, and the shed counter reads 0.
func TestSlowSSEClientReceivesEveryFrame(t *testing.T) {
	root := t.TempDir()
	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 1024, sampleEvery: 1000, spillDir: root}, sup)
	r, err := srv.admit(1024, "", supervise.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	defer pr.Close()
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/runs/"+r.id+"/events", nil)
		srv.handler().ServeHTTP(pipeResponse{pw, http.Header{}}, req)
		pw.Close()
	}()
	var payloads []string
	frames := -1
	sc := bufio.NewScanner(slowReader{pr})
	for frames < 0 && sc.Scan() {
		line := sc.Text()
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			if id != strconv.Itoa(len(payloads)) {
				t.Fatalf("frame id %s after %d frames: ids must be contiguous from 0", id, len(payloads))
			}
			if !sc.Scan() {
				t.Fatal("stream ended inside a frame")
			}
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				t.Fatalf("frame %s data line = %q", id, sc.Text())
			}
			payloads = append(payloads, data)
		}
		if line == "event: finalize" {
			var fin struct{ Frames int }
			if !sc.Scan() {
				t.Fatal("stream ended inside the finalize frame")
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &fin); err != nil {
				t.Fatalf("finalize data %q: %v", sc.Text(), err)
			}
			frames = fin.Frames
		}
	}
	if frames < 0 {
		t.Fatalf("no finalize frame after %d frames (%v)", len(payloads), sc.Err())
	}
	if len(payloads) != frames {
		t.Fatalf("received %d frames, finalize says %d", len(payloads), frames)
	}
	log, err := obs.LoadSegments(filepath.Join(root, r.id))
	if err != nil {
		t.Fatal(err)
	}
	var spilled []string
	for _, l := range log.Lines {
		if l.S == nil {
			spilled = append(spilled, string(obs.AppendEventJSON(nil, &l.E)))
		}
	}
	if len(spilled) != frames {
		t.Fatalf("spill holds %d events, stream %d frames", len(spilled), frames)
	}
	for i := range spilled {
		if payloads[i] != spilled[i] {
			t.Fatalf("frame %d payload differs from its spilled event:\n sse   %s\n spill %s", i, payloads[i], spilled[i])
		}
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	body := scrape(t, ts.URL+"/metrics")
	want := fmt.Sprintf("oclmon_sse_dropped_total{run=%q} 0\n", r.id)
	if !strings.Contains(body, want) {
		t.Fatalf("metrics missing %q:\n%s", want, grepMetrics(body, "sse"))
	}
}

// flushSignal is a ResponseRecorder that closes flushed at its first Flush —
// for an SSE handler, the moment it has sent its headers and starts tailing.
type flushSignal struct {
	*httptest.ResponseRecorder
	once    sync.Once
	flushed chan struct{}
}

func (f *flushSignal) Flush() {
	f.ResponseRecorder.Flush()
	f.once.Do(func() { close(f.flushed) })
}

// TestSSEClientDisconnectEndsTail pins the tail's lifetime to its request: a
// client that goes away while a run is quiet (no events, no keepalive due
// for an hour) releases its handler at once, not at the next failed write.
func TestSSEClientDisconnectEndsTail(t *testing.T) {
	srv := newServer(serverConfig{n: 64, sampleEvery: 1000, sseKeepalive: time.Hour},
		supervise.New(supervise.Config{Slots: 1}))
	r := &run{id: "quiet", workload: "oclmon", sink: newLiveSink("d", 0), state: supervise.StateRunning}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/runs/quiet/events", nil).WithContext(ctx)
	rec := &flushSignal{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{})}
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		srv.serveEvents(rec, req, r)
	}()
	<-rec.flushed
	cancel()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("serveEvents still running 1s after the client disconnected")
	}
}

// TestCrashRecoveryResumesRun is the in-process kill-and-recover path: a run
// dies mid-flight leaving sealed spill segments, a fresh server re-executes
// it deterministically against the durable prefix, and the stitched record
// is byte-identical to an uninterrupted run's.
func TestCrashRecoveryResumesRun(t *testing.T) {
	const n = 512
	root := t.TempDir()

	// "Crash": drive the workload partway with a segment spill, then abandon
	// the machine — sealed segments survive, the open .part does not count.
	seg, err := obs.NewSegmentSink(obs.SegmentConfig{
		Dir: root + "/run1", Design: "oclmon", SampleEvery: 1000,
		Meta:     map[string]string{"workload": "oclmon", "n": "512"},
		MaxLines: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := launchWorkload(t, n, seg)
	if err := m.RunFor(40_000); err == nil {
		t.Fatal("workload finished before the crash point; raise n")
	}
	slog, err := obs.LoadSegments(root + "/run1")
	if err != nil {
		t.Fatal(err)
	}
	if len(slog.Lines) == 0 {
		t.Fatal("crash left no durable prefix; lower MaxLines")
	}

	// Recovery: a fresh server finds the incomplete spill and re-executes.
	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 8192, sampleEvery: 1000, spillDir: root, segLines: 64}, sup)
	if err := srv.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	r := srv.get("run1")
	if r == nil || !r.recovered {
		t.Fatalf("run1 not resumed: %+v", r)
	}
	waitState(t, srv, "run1", supervise.StateCompleted)

	// The stitched spill replays byte-identically to an uninterrupted run.
	stitched, err := obs.LoadSegments(root + "/run1")
	if err != nil {
		t.Fatal(err)
	}
	if !stitched.Manifest.Complete {
		t.Fatalf("recovered manifest not complete: %+v", stitched.Manifest)
	}
	tl, ser, err := stitched.Replay()
	if err != nil {
		t.Fatal(err)
	}
	clean := launchWorkload(t, n, nil)
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := obs.WriteTimeline(&got, tl); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTimeline(&want, clean.Timeline()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("recovered timeline differs from uninterrupted run")
	}
	got.Reset()
	want.Reset()
	if err := obs.WriteSeries(&got, ser); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSeries(&want, clean.Series()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("recovered series differs from uninterrupted run")
	}

	// A third boot finds the now-complete spill and serves it statically.
	srv2 := newServer(serverConfig{n: 8192, sampleEvery: 1000, spillDir: root}, supervise.New(supervise.Config{Slots: 1}))
	if err := srv2.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	r2 := srv2.get("run1")
	if r2 == nil {
		t.Fatal("completed run not recovered on reboot")
	}
	if st, _ := r2.status(); st != supervise.StateCompleted {
		t.Fatalf("rebooted run state = %s", st)
	}
	if r2.sink.stats().cycle != stitched.Manifest.EndCycle {
		t.Fatalf("static run at cycle %d, want %d", r2.sink.stats().cycle, stitched.Manifest.EndCycle)
	}
}

// TestQueryAndAtCycleEndpoints drives a real spilled run to completion, then
// exercises the time-travel surface: the indexed event query over its spill
// and the at-cycle state dump rebuilt by checkpoint-rewound re-execution.
func TestQueryAndAtCycleEndpoints(t *testing.T) {
	root := t.TempDir()
	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{
		n: 256, sampleEvery: 1000, spillDir: root, segLines: 64, ckptEvery: 4096,
	}, sup)
	if _, err := srv.admit(256, "", supervise.Limits{}); err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, "run1", supervise.StateCompleted)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var res struct {
		SegmentsTotal int `json:"segmentsTotal"`
		SegmentsRead  int `json:"segmentsRead"`
		Events        []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	body := scrape(t, ts.URL+"/runs/run1/query?q=kind%3Dchan-stall")
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("query response: %v\n%s", err, body)
	}
	if len(res.Events) == 0 {
		t.Fatal("no chan-stall events from the stall-heavy workload")
	}
	for _, e := range res.Events {
		if e.Kind != "chan-stall" {
			t.Fatalf("query returned kind %q", e.Kind)
		}
	}
	if res.SegmentsTotal == 0 || res.SegmentsRead > res.SegmentsTotal {
		t.Fatalf("segment accounting: read %d of %d", res.SegmentsRead, res.SegmentsTotal)
	}

	resp, err := http.Get(ts.URL + "/runs/run1/query?q=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query = %d, want 400", resp.StatusCode)
	}

	// at-cycle past the first checkpoint: the rewind path must verify the
	// recorded hash and land exactly on the requested cycle.
	var st struct {
		Design    string `json:"design"`
		Cycle     int64  `json:"cycle"`
		StateHash string `json:"stateHash"`
	}
	body = scrape(t, ts.URL+"/runs/run1/at-cycle?n=5000")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("at-cycle response: %v\n%s", err, body)
	}
	if st.Design != "oclmon" || st.Cycle != 5000 || st.StateHash == "" {
		t.Fatalf("at-cycle dump = %+v", st)
	}

	resp, err = http.Get(ts.URL + "/runs/run1/at-cycle?n=-3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad at-cycle n = %d, want 400", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	srv := newServer(serverConfig{n: 64, sampleEvery: 1000}, supervise.New(supervise.Config{Slots: 1}))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	for _, q := range []string{"n=0", "n=x", "cycles=-1", "wall=banana"} {
		resp, err := http.Post(ts.URL+"/runs?"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /runs?%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestDiffAndBaselineEndpoints drives two identical runs to completion and
// exercises the differential surface: /runs/{a}/diff/{b} must serve a valid,
// all-neutral report for deterministic twins, pinning a baseline must light
// up the verdict field in /runs and the oclmon_run_regressed gauge, and the
// error paths must answer with the right statuses.
func TestDiffAndBaselineEndpoints(t *testing.T) {
	sup := supervise.New(supervise.Config{Slots: 2})
	defer sup.Close()
	srv := newServer(serverConfig{n: 256, sampleEvery: 1000}, sup)
	for i := 0; i < 2; i++ {
		if _, err := srv.admit(256, "", supervise.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, srv, "run1", supervise.StateCompleted)
	waitState(t, srv, "run2", supervise.StateCompleted)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	body := scrape(t, ts.URL+"/runs/run1/diff/run2")
	rep, err := diff.ReadReport(strings.NewReader(body))
	if err != nil {
		t.Fatalf("diff response: %v\n%s", err, body)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != diff.Neutral {
		t.Fatalf("identical runs diffed %q, want neutral:\n%s", rep.Verdict, body)
	}
	if len(rep.Series) == 0 {
		t.Fatal("diff of sampled runs has no series section")
	}

	// Error paths: unknown runs 404, bad thresholds 400.
	for url, want := range map[string]int{
		"/runs/run1/diff/nope":        http.StatusNotFound,
		"/runs/nope/diff/run2":        http.StatusNotFound,
		"/runs/run1/diff/run2?rel=x":  http.StatusBadRequest,
		"/runs/run1/diff/run2?abs=-1": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, want)
		}
	}

	// No baseline pinned: no verdicts anywhere.
	if strings.Contains(scrape(t, ts.URL+"/runs"), "verdict") {
		t.Fatal("verdict reported before a baseline was pinned")
	}

	// Pinning validates its input.
	for url, want := range map[string]int{
		"/baselines/oclmon":          http.StatusBadRequest, // missing run
		"/baselines/oclmon?run=nope": http.StatusNotFound,
		"/baselines/other?run=run1":  http.StatusBadRequest, // workload mismatch
	} {
		resp, err := http.Post(ts.URL+url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(ts.URL+"/baselines/oclmon?run=run1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pin baseline = %d, want 200", resp.StatusCode)
	}
	var pins map[string]string
	if err := json.Unmarshal([]byte(scrape(t, ts.URL+"/baselines")), &pins); err != nil {
		t.Fatal(err)
	}
	if pins["oclmon"] != "run1" {
		t.Fatalf("baselines = %v", pins)
	}

	// run2 now carries a verdict against run1; run1 (the baseline) does not.
	var index []struct {
		ID      string `json:"id"`
		Verdict string `json:"verdict"`
	}
	if err := json.Unmarshal([]byte(scrape(t, ts.URL+"/runs")), &index); err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]string{}
	for _, e := range index {
		verdicts[e.ID] = e.Verdict
	}
	if verdicts["run2"] != string(diff.Neutral) {
		t.Fatalf("run2 verdict %q, want neutral (index %v)", verdicts["run2"], verdicts)
	}
	if verdicts["run1"] != "" {
		t.Fatalf("baseline run1 carries verdict %q", verdicts["run1"])
	}
	metrics := scrape(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "oclmon_run_regressed{run=\"run2\"} 0") {
		t.Fatalf("regressed gauge missing:\n%s", grepMetrics(metrics, "regressed"))
	}
	if strings.Contains(metrics, "oclmon_run_regressed{run=\"run1\"}") {
		t.Fatal("baseline run exposes a regressed gauge against itself")
	}
}

// TestSSEKeepaliveFrames pins the idle-stream contract: a live tail with no
// traffic receives `: keepalive` comment frames at the injected interval, and
// still terminates with the finalize frame when the run's timeline closes.
func TestSSEKeepaliveFrames(t *testing.T) {
	srv := newServer(serverConfig{n: 64, sampleEvery: 1000, sseKeepalive: 20 * time.Millisecond},
		supervise.New(supervise.Config{Slots: 1}))
	sink := newLiveSink("d", 0)
	srv.addRun(&run{id: "idle", workload: "oclmon", sink: sink, state: supervise.StateRunning})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/runs/idle/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	readLine := func() string {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		return strings.TrimRight(line, "\n")
	}
	// Two keepalives prove the ticker recurs, not a one-shot.
	keepalives := 0
	for keepalives < 2 {
		if readLine() == ": keepalive" {
			keepalives++
		}
	}

	// An event resets the idle clock and arrives as a normal frame...
	sink.Event(obs.Event{Kind: obs.KindLaunch, Track: "unit:k", Name: "go", Start: 1, End: 1})
	var sawEvent bool
	for !sawEvent {
		if l := readLine(); strings.HasPrefix(l, "id: ") {
			sawEvent = true
		}
	}
	// ...and finalize still closes the stream through the keepalive loop.
	sink.Finalize(7)
	var sawFinalize bool
	for !sawFinalize {
		if l := readLine(); l == "event: finalize" {
			sawFinalize = true
		}
	}
}

// TestSSEFinalizeAfterSpillCommit pins the live stream's closing contract on
// a spilled run: once a client has read the finalize frame, the run's spill
// manifest is already committed complete, and the frame's "frames" count is
// the full stream length (ff-jumps included): the event lines the spill
// holds, and the frames the client received.
func TestSSEFinalizeAfterSpillCommit(t *testing.T) {
	root := t.TempDir()
	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 1024, sampleEvery: 1000, spillDir: root, segLines: 64}, sup)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	r, err := srv.admit(1024, "", supervise.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/runs/" + r.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fin struct {
		EndCycle int64 `json:"endCycle"`
		Frames   int   `json:"frames"`
	}
	received := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "id: ") {
			received++
		}
		if sc.Text() != "event: finalize" {
			continue
		}
		if !sc.Scan() {
			t.Fatal("stream ended inside the finalize frame")
		}
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			t.Fatalf("finalize frame data line = %q", sc.Text())
		}
		if err := json.Unmarshal([]byte(data), &fin); err != nil {
			t.Fatalf("finalize data %q: %v", data, err)
		}
		break
	}
	if fin.EndCycle == 0 {
		t.Fatal("no finalize frame")
	}
	dir := filepath.Join(root, r.id)
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !man.Complete || man.EndCycle != fin.EndCycle {
		t.Fatalf("after finalize frame: manifest complete=%v endCycle=%d, stream endCycle %d",
			man.Complete, man.EndCycle, fin.EndCycle)
	}
	log, err := obs.LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, l := range log.Lines {
		if l.S == nil {
			events++
		}
	}
	if fin.Frames != events || received != fin.Frames {
		t.Fatalf("finalize frames=%d, spill holds %d events, client received %d", fin.Frames, events, received)
	}
}

// TestCompletedRunServedFromSpill: once a run's spill is committed, its
// in-memory records are dropped and every read re-loads them from the
// spill, answering byte-identically to a server that holds its runs in
// memory. A tail already at the stream end reads no records, so it still
// gets its finalize frame when the spill is gone; a read that needs the
// records then fails rather than answering.
func TestCompletedRunServedFromSpill(t *testing.T) {
	host := func(spillDir string) (*server, string) {
		sup := supervise.New(supervise.Config{Slots: 1})
		t.Cleanup(sup.Close)
		srv := newServer(serverConfig{n: 256, sampleEvery: 1000, spillDir: spillDir, segLines: 64}, sup)
		for _, id := range []string{"run1", "run2"} {
			if _, err := srv.admit(256, "", supervise.Limits{}); err != nil {
				t.Fatal(err)
			}
			waitState(t, srv, id, supervise.StateCompleted)
		}
		ts := httptest.NewServer(srv.handler())
		t.Cleanup(ts.Close)
		return srv, ts.URL
	}
	root := t.TempDir()
	held, heldURL := host("")
	spilled, spilledURL := host(root)
	released := func(r *run) bool {
		r.sink.mu.Lock()
		defer r.sink.mu.Unlock()
		return r.sink.released && r.sink.stream == nil && r.sink.samples == nil
	}
	for _, id := range []string{"run1", "run2"} {
		deadline := time.Now().Add(10 * time.Second)
		for !released(spilled.get(id)) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: completed spilled run still holds its records", id)
			}
			time.Sleep(time.Millisecond)
		}
		if released(held.get(id)) {
			t.Fatalf("%s: a run without a spill dropped its records", id)
		}
	}
	for _, path := range []string{
		"/runs/run1/events", "/runs/run2/timeline.json", "/runs/run2/attr.json", "/runs/run1/diff/run2",
	} {
		if got, want := scrape(t, spilledURL+path), scrape(t, heldURL+path); got != want {
			t.Errorf("GET %s from the spill differs from the in-memory run's:\n%s\nwant:\n%s", path, got, want)
		}
	}
	// Concurrent readers of a released run each re-load it on their own.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		path := []string{"/runs/run2/events", "/runs/run2/timeline.json"}[i%2]
		want := scrape(t, heldURL+path)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(spilledURL + path)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if got, err := io.ReadAll(resp.Body); err != nil || string(got) != want {
				t.Errorf("concurrent GET %s differs from the in-memory run's (err %v)", path, err)
			}
		}()
	}
	wg.Wait()
	if got, want := grepMetrics(scrape(t, spilledURL+"/metrics"), `{run="run1"}`),
		grepMetrics(scrape(t, heldURL+"/metrics"), `{run="run1"}`); !strings.Contains(got, "oclmon_samples_total") ||
		grepMetrics(got, "_total") != grepMetrics(want, "_total") {
		t.Errorf("released run's counters:\n%s\nwant:\n%s", got, want)
	}

	ids := sseIDs(t, heldURL+"/runs/run1/events", "")
	if err := os.RemoveAll(filepath.Join(root, "run1")); err != nil {
		t.Fatal(err)
	}
	if tail := sseIDs(t, spilledURL+"/runs/run1/events", strconv.FormatInt(ids[len(ids)-1], 10)); len(tail) != 0 {
		t.Fatalf("reconnect at the stream end got frames %v", tail)
	}
	if body := scrape(t, spilledURL+"/runs/run1/events"); strings.Contains(body, "event: finalize") {
		t.Fatal("a stream whose spill is gone was served to its finalize frame")
	}
	resp, err := http.Get(spilledURL + "/runs/run1/timeline.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("timeline of a run whose spill is gone = %d, want 500", resp.StatusCode)
	}
}

// TestLiveSinkHoldsStreamForReadingTail: a tail reading when the run's
// spill is committed keeps the stream in memory — its reads never touch the
// spill — and the sink drops the stream when that tail ends.
func TestLiveSinkHoldsStreamForReadingTail(t *testing.T) {
	s := newLiveSink("d", 0)
	for c := int64(1); c <= 3; c++ {
		s.Event(obs.Event{Kind: obs.KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: c, End: c})
	}
	end := s.tail()
	s.Finalize(5)
	s.retire(0, nil)
	s.serve(filepath.Join(t.TempDir(), "no-spill"))
	evs, done, _, err := s.next(0)
	if err != nil || !done || len(evs) != 3 {
		t.Fatalf("tail read %d events, done %v, err %v; want 3 from memory", len(evs), done, err)
	}
	if s.released {
		t.Fatal("stream dropped under a reading tail")
	}
	end()
	if !s.released || s.stream != nil {
		t.Fatal("stream kept after the last tail ended")
	}
	if _, _, _, err := s.next(0); err == nil {
		t.Fatal("a released sink whose spill is gone served its stream")
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func grepMetrics(body, substr string) string {
	var out []string
	for _, l := range strings.Split(body, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// completeSpilledRun hosts one run to completion on a throwaway server
// (checkpointing every ckptEvery cycles) so the durability tests get a real,
// complete spill directory to damage.
func completeSpilledRun(t *testing.T, root string, n int, ckptEvery int64) string {
	t.Helper()
	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: n, sampleEvery: 1000, spillDir: root, segLines: 64, ckptEvery: ckptEvery}, sup)
	// A small slice pauses RunFor inside fast-forward windows, so these
	// fixtures repair byte-identically only if the record is slice-invariant:
	// the spill's run spec carries no slice schedule to re-execute under.
	r, err := srv.admit(n, "", supervise.Limits{Slice: 500})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, r.id, supervise.StateCompleted)
	return filepath.Join(root, r.id)
}

// TestBootScrubRepairsDamagedSpill rots a completed spill on disk (bit flip
// in a sealed segment, torn-rename debris) and reboots: the boot scrubber
// must repair the segment by deterministic re-execution, byte-identically,
// and then serve the run as if nothing happened.
func TestBootScrubRepairsDamagedSpill(t *testing.T) {
	root := t.TempDir()
	dir := completeSpilledRun(t, root, 256, 0)
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, man.Segments[0].File)
	clean, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.FlipByte(first, 30); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json.tmp"), []byte("{torn"), 0o666); err != nil {
		t.Fatal(err)
	}

	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 256, sampleEvery: 1000, spillDir: root, segLines: 64}, sup)
	if err := srv.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	r := srv.get("run1")
	if r == nil {
		t.Fatal("repaired run not hosted")
	}
	if r.quarantinedSpill {
		t.Fatal("repairable spill was quarantined")
	}
	if st, _ := r.status(); st != supervise.StateCompleted {
		t.Fatalf("repaired run state = %s", st)
	}
	got, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, got) {
		t.Fatal("re-executed segment is not byte-identical to the original")
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json.tmp")); !os.IsNotExist(err) {
		t.Fatal("torn-rename debris survived the boot scrub")
	}
	rep, err := scrub.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Fatalf("spill still unhealthy after boot scrub: %+v", rep.Damage)
	}
	if r.sink.stats().cycle != man.EndCycle {
		t.Fatalf("served run at cycle %d, want %d", r.sink.stats().cycle, man.EndCycle)
	}
}

// TestBootSweepsHealthySpill reboots over a healthy completed spill that a
// crash left commit debris beside: its load alone vouches for every segment,
// and the debris is swept from the directory listing.
func TestBootSweepsHealthySpill(t *testing.T) {
	root := t.TempDir()
	dir := completeSpilledRun(t, root, 256, 0)
	for _, f := range []string{"manifest.json.tmp", "seg-000099.flat.part"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("{torn"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 256, sampleEvery: 1000, spillDir: root, segLines: 64}, sup)
	if err := srv.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	if r := srv.get("run1"); r == nil || r.quarantinedSpill {
		t.Fatal("healthy spill not hosted")
	}
	rep, err := scrub.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Fatalf("debris survived the boot sweep: %+v", rep.Damage)
	}
}

// TestVersion1SpillRefused opens a spill directory in the version-1 layout —
// NDJSON segments with .flat sidecars, as the previous format's writer left
// them (testdata/spill-v1). Every reader refuses it with the one typed
// error, none panics, and the boot quarantines it under that error without
// touching its files.
func TestVersion1SpillRefused(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "run-v1")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir("testdata/spill-v1")
	if err != nil {
		t.Fatal(err)
	}
	orig := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join("testdata/spill-v1", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		orig[e.Name()] = data
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want := &obs.SpillVersionError{Version: 1}
	refused := func(name string, err error) {
		t.Helper()
		var ve *obs.SpillVersionError
		if !errors.As(err, &ve) || *ve != *want {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
	_, err = obs.LoadSegments(dir)
	refused("LoadSegments", err)
	_, err = query.Run(dir, query.Query{Kind: obs.KindChanStall})
	refused("query.Run", err)
	_, _, _, err = diff.CompareSpills(dir, dir, diff.DefaultThresholds())
	refused("diff.CompareSpills", err)
	_, err = scrub.Scan(dir)
	refused("scrub.Scan", err)
	var man obs.Manifest
	if err := json.Unmarshal(orig["manifest.json"], &man); err != nil {
		t.Fatal(err)
	}
	_, err = obs.NewResumeSink(obs.SegmentConfig{Dir: dir}, &man)
	refused("NewResumeSink", err)

	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 256, sampleEvery: 1000, spillDir: root, segLines: 64}, sup)
	if err := srv.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	if r := srv.get("run-v1"); r == nil || !r.quarantinedSpill {
		t.Fatal("version-1 spill not hosted as quarantined")
	}
	if q, ok := scrub.Quarantined(dir); !ok || q.Reason != want.Error() {
		t.Fatalf("quarantine record = %+v, want reason %q", q, want.Error())
	}
	for name, data := range orig {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed by the refusal (err %v)", name, err)
		}
	}
}

// TestBootScrubRebuildsFromRecordedSpec: the boot scrub re-executes the run
// spec the spill recorded, never this boot's flags. A spill recorded with a
// checkpoint grid is rotted and rebooted under -checkpoint-every 0 and a
// different -sample-every and -n: the segment must still come back
// byte-identical, and the at-cycle rewind must verify the recorded
// checkpoints against the recorded spec.
func TestBootScrubRebuildsFromRecordedSpec(t *testing.T) {
	root := t.TempDir()
	dir := completeSpilledRun(t, root, 256, 2048)
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, man.Segments[0].File)
	clean, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.FlipByte(first, 30); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	log.SetOutput(io.MultiWriter(os.Stderr, &logs))
	defer log.SetOutput(os.Stderr)
	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 64, sampleEvery: 250, spillDir: root, segLines: 64}, sup)
	if err := srv.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "boot scrub repaired") {
		t.Fatalf("no boot scrub repair logged:\n%s", logs.String())
	}
	if got, err := os.ReadFile(first); err != nil || !bytes.Equal(clean, got) {
		t.Fatalf("re-executed segment is not byte-identical to the original (%v)", err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if m := scrape(t, ts.URL+"/metrics"); !strings.Contains(m, "\noclmon_runs_quarantined 0\n") {
		t.Fatalf("quarantine gauge: %s", grepMetrics(m, "oclmon_runs_quarantined"))
	}
	var st struct {
		Cycle int64 `json:"cycle"`
	}
	body := scrape(t, ts.URL+"/runs/run1/at-cycle?n=5000")
	if err := json.Unmarshal([]byte(body), &st); err != nil || st.Cycle != 5000 {
		t.Fatalf("at-cycle from the recorded spec: %v\n%s", err, body)
	}
}

// TestBootScrubQuarantinesUnrepairableSpill poisons the rebuild recipe and
// rots a segment: with no way to regenerate trustworthy bytes, the boot scrub
// must quarantine the spill — degraded verdict in /runs, a gauge in /metrics,
// a durable marker on disk that later boots honor without re-scrubbing — and
// never serve the corrupt telemetry.
func TestBootScrubQuarantinesUnrepairableSpill(t *testing.T) {
	root := t.TempDir()
	dir := completeSpilledRun(t, root, 256, 0)
	manPath := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["meta"].(map[string]any)["workload"] = "mystery"
	poisoned, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, poisoned, 0o666); err != nil {
		t.Fatal(err)
	}
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.FlipByte(filepath.Join(dir, man.Segments[0].File), 40); err != nil {
		t.Fatal(err)
	}

	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 256, sampleEvery: 1000, spillDir: root, segLines: 64}, sup)
	if err := srv.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	r := srv.get("run1")
	if r == nil || !r.quarantinedSpill {
		t.Fatalf("unrepairable spill not quarantined: %+v", r)
	}
	if st, _ := r.status(); st != supervise.StateQuarantined {
		t.Fatalf("quarantined run state = %s", st)
	}
	if _, ok := scrub.Quarantined(dir); !ok {
		t.Fatal("no quarantine marker on disk")
	}

	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var idx []struct {
		ID          string `json:"id"`
		Quarantined bool   `json:"quarantined"`
		Done        bool   `json:"done"`
		Error       string `json:"error"`
	}
	body := scrape(t, ts.URL+"/runs")
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("index: %v\n%s", err, body)
	}
	if len(idx) != 1 || !idx[0].Quarantined || !idx[0].Done || !strings.Contains(idx[0].Error, "quarantined") {
		t.Fatalf("index entry = %+v", idx)
	}
	metrics := scrape(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "oclmon_runs_quarantined 1") {
		t.Fatalf("quarantine gauge missing:\n%s", grepMetrics(metrics, "quarantine"))
	}
	if grepMetrics(metrics, "oclmon_spill_bytes ") == "" {
		t.Fatalf("spill bytes gauge missing:\n%s", grepMetrics(metrics, "spill"))
	}

	// A later boot must honor the standing marker, not re-judge the bytes.
	sup2 := supervise.New(supervise.Config{Slots: 1})
	defer sup2.Close()
	srv2 := newServer(serverConfig{n: 256, sampleEvery: 1000, spillDir: root, segLines: 64}, sup2)
	if err := srv2.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	if r2 := srv2.get("run1"); r2 == nil || !r2.quarantinedSpill {
		t.Fatalf("quarantine marker not honored on reboot: %+v", r2)
	}
}

// TestSpillGCEnforcesBudget completes two spilled runs, ages one, and reboots
// under a disk budget that only fits one: the oldest completed run must be
// evicted from disk and registry; the newer one survives intact.
func TestSpillGCEnforcesBudget(t *testing.T) {
	root := t.TempDir()
	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 256, sampleEvery: 1000, spillDir: root, segLines: 64}, sup)
	for _, id := range []string{"run1", "run2"} {
		if _, err := srv.admit(256, "", supervise.Limits{}); err != nil {
			t.Fatal(err)
		}
		waitState(t, srv, id, supervise.StateCompleted)
	}
	d1, d2 := filepath.Join(root, "run1"), filepath.Join(root, "run2")
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(d1, "manifest.json"), old, old); err != nil {
		t.Fatal(err)
	}
	budget := scrub.DirBytes(d1) + scrub.DirBytes(d2) - 1

	sup2 := supervise.New(supervise.Config{Slots: 1})
	defer sup2.Close()
	srv2 := newServer(serverConfig{n: 256, sampleEvery: 1000, spillDir: root, segLines: 64, spillBudget: budget}, sup2)
	if err := srv2.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(d1); !os.IsNotExist(err) {
		t.Fatal("oldest completed spill not evicted")
	}
	if srv2.get("run1") != nil {
		t.Fatal("evicted run still in the registry")
	}
	r2 := srv2.get("run2")
	if r2 == nil {
		t.Fatal("surviving run lost")
	}
	if st, _ := r2.status(); st != supervise.StateCompleted {
		t.Fatalf("surviving run state = %s", st)
	}
	ts := httptest.NewServer(srv2.handler())
	defer ts.Close()
	metrics := scrape(t, ts.URL+"/metrics")
	if grepMetrics(metrics, "oclmon_spill_budget_bytes ") == "" {
		t.Fatalf("budget gauge missing:\n%s", grepMetrics(metrics, "spill"))
	}
}

// TestSubmitDiskFullAnswers503 arms an injected filesystem fault so the
// admission-time spill creation hits ENOSPC: the submission must be refused
// with 503 + Retry-After (backpressure, not a crash), leave no registry entry
// and no half-born spill directory, and succeed once space is back.
func TestSubmitDiskFullAnswers503(t *testing.T) {
	root := t.TempDir()
	ffs := obs.NewFaultFS(obs.OSFS())
	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 64, sampleEvery: 1000, spillDir: root, segLines: 64, fs: ffs}, sup)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	ffs.Arm(1, obs.FaultAny, obs.FaultENOSPC)
	resp, err := http.Post(ts.URL+"/runs", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disk-full submit = %d, want 503\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on disk-full 503")
	}
	if !strings.Contains(string(body), "disk full") {
		t.Fatalf("untyped refusal: %s", body)
	}
	if n := len(srv.allRuns()); n != 0 {
		t.Fatalf("refused submission left %d registry entries", n)
	}
	if _, err := os.Stat(filepath.Join(root, "run1")); !os.IsNotExist(err) {
		t.Fatal("half-born spill directory survived the refusal")
	}

	ffs.Disarm()
	resp, err = http.Post(ts.URL+"/runs", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit = %d, want 202", resp.StatusCode)
	}
	waitState(t, srv, acc.ID, supervise.StateCompleted)
}

// TestBootQuarantinesSlicedV1Spill: a version-1 oclmon spill records the
// supervisor's slice schedule, which slice-invariant re-execution cannot
// reproduce. Boot must quarantine it — crashed (nothing to resume against)
// or complete and rotted (nothing to repair with) — never resume it into a
// forked stream or repair it with wrong bytes.
func TestBootQuarantinesSlicedV1Spill(t *testing.T) {
	root := t.TempDir()
	dir := completeSpilledRun(t, root, 256, 0)
	v1 := map[string]string{"workload": "oclmon", "n": "512", "tenant": "default", "slice": "500", "cycle-budget": "50000000"}
	seg, err := obs.NewSegmentSink(obs.SegmentConfig{
		Dir: filepath.Join(root, "crashed"), Design: "oclmon", SampleEvery: 1000, Meta: v1, MaxLines: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := launchWorkload(t, 512, seg).RunFor(40_000); err == nil {
		t.Fatal("workload finished before the crash point; raise n")
	}

	manPath := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	meta := m["meta"].(map[string]any)
	delete(meta, "spec")
	meta["slice"] = "500"
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	rotted := filepath.Join(dir, man.Segments[0].File)
	if err := obs.FlipByte(rotted, 40); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(rotted)
	if err != nil {
		t.Fatal(err)
	}

	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{n: 256, sampleEvery: 1000, spillDir: root, segLines: 64}, sup)
	if err := srv.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"crashed", filepath.Base(dir)} {
		r := srv.get(id)
		if r == nil || !r.quarantinedSpill {
			t.Fatalf("%s: v1 sliced spill not quarantined: %+v", id, r)
		}
		q, ok := scrub.Quarantined(filepath.Join(root, id))
		if !ok || !strings.Contains(q.Reason, "slice") {
			t.Fatalf("%s: quarantine marker %+v, want the slice refusal", id, q)
		}
	}
	if after, err := os.ReadFile(rotted); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused spill's segment was rewritten (%v)", err)
	}
}

// TestSupervisedSpillMatchesExecute: the supervisor drives a hosted run in
// 500-cycle watchdog slices, yet its spill is byte-identical, file for file,
// to one Execute of the spec its manifest records with no supervisor — the
// slice schedule shapes nothing.
func TestSupervisedSpillMatchesExecute(t *testing.T) {
	root := t.TempDir()
	dir := completeSpilledRun(t, root, 256, 2048)
	man, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.SpecFromManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.SegmentConfig(filepath.Join(t.TempDir(), "execute"))
	cfg.MaxLines = 64
	seg, err := obs.NewSegmentSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Execute(seg); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadDir(cfg.Dir); err != nil || len(again) != len(ents) {
		t.Fatalf("Execute wrote %d files, the supervised run %d (%v)", len(again), len(ents), err)
	}
	for _, e := range ents {
		want, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(cfg.Dir, e.Name())); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s differs between the supervised spill and Execute (%v)", e.Name(), err)
		}
	}
}
