package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"oclfpga/internal/obs"
	"oclfpga/internal/supervise"
)

// sseOpen GETs the run's event stream with the given Last-Event-ID header
// ("" for a fresh tail); it returns once the server has sent its headers.
func sseOpen(t *testing.T, url, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events = %d", resp.StatusCode)
	}
	return resp
}

// sseRead returns the sequence ids of every frame on an open stream before
// its finalize frame, and that frame's "frames" count; a stream that ends
// without one fails the test.
func sseRead(t *testing.T, resp *http.Response) (ids []int64, frames int) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: finalize" {
			var fin struct{ Frames int }
			if !sc.Scan() || json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &fin) != nil {
				t.Fatalf("bad finalize frame data %q", sc.Text())
			}
			return ids, fin.Frames
		}
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			ids = append(ids, n)
		}
	}
	t.Fatalf("stream ended without a finalize frame after ids %v (%v)", ids, sc.Err())
	return nil, 0
}

// sseIDs reads a whole stream: the ids of every frame before finalize.
func sseIDs(t *testing.T, url, lastEventID string) []int64 {
	t.Helper()
	ids, _ := sseRead(t, sseOpen(t, url, lastEventID))
	return ids
}

// TestSSEResumeWithLastEventID is the reconnect contract: a client that saw
// frames up to id K reconnects with Last-Event-ID: K and receives exactly
// the frames after K — no duplicates, no gaps — because ids index the run's
// deterministic append-order stream.
func TestSSEResumeWithLastEventID(t *testing.T) {
	sink := newLiveSink("d", 0)
	const total = 10
	for i := 0; i < total; i++ {
		sink.Event(obs.Event{Kind: obs.KindLaunch, Track: "unit:k", Name: "go", Start: int64(i), End: int64(i)})
	}
	sink.Finalize(int64(total))
	srv := newServer(serverConfig{n: 64, sampleEvery: 1000}, supervise.New(supervise.Config{Slots: 1}))
	srv.addRun(&run{id: "sse", workload: "oclmon", sink: sink, state: supervise.StateCompleted})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	url := ts.URL + "/runs/sse/events"

	// A fresh tail sees the full stream, ids 0..9 in order.
	full := sseIDs(t, url, "")
	if len(full) != total {
		t.Fatalf("full tail got %d frames, want %d: %v", len(full), total, full)
	}
	for i, id := range full {
		if id != int64(i) {
			t.Fatalf("full tail ids out of order: %v", full)
		}
	}

	// Resume mid-stream: exactly the frames after the last-seen id.
	for _, after := range []int64{0, 4, 8} {
		got := sseIDs(t, url, strconv.FormatInt(after, 10))
		if len(got) != total-int(after)-1 {
			t.Fatalf("resume after %d got %d frames: %v", after, len(got), got)
		}
		for i, id := range got {
			if id != after+1+int64(i) {
				t.Fatalf("resume after %d has dup/gap: %v", after, got)
			}
		}
	}
	// Resuming past the end yields only the finalize frame.
	if got := sseIDs(t, url, strconv.Itoa(total)); len(got) != 0 {
		t.Fatalf("resume past end got frames: %v", got)
	}
	// The ?after= query form works too (for clients that can't set headers).
	resp, err := http.Get(url + "?after=7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?after= form = %d", resp.StatusCode)
	}
	// A malformed id is rejected, not treated as a fresh tail.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Last-Event-ID", "banana")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID = %d, want 400", resp.StatusCode)
	}
}

// TestRetryAfterJitterVaries: the 429 Retry-After values are jittered (so a
// thundering herd of shed clients de-synchronizes), bounded, and
// deterministic for a given worker identity.
func TestRetryAfterJitterVaries(t *testing.T) {
	sup := supervise.New(supervise.Config{Slots: 1})
	s1 := newServer(serverConfig{n: 64, sampleEvery: 1000, workerName: "w1"}, sup)
	seen := map[string]bool{}
	var seq []string
	for i := 0; i < 32; i++ {
		v := s1.retryAfter()
		sec, err := strconv.Atoi(v)
		if err != nil || sec < 1 || sec > 3 {
			t.Fatalf("Retry-After %q out of the 1..3s jitter band", v)
		}
		seen[v] = true
		seq = append(seq, v)
	}
	if len(seen) < 2 {
		t.Fatalf("32 Retry-After values never varied: %v", seq)
	}
	// Deterministic: a same-named server replays the same schedule.
	s2 := newServer(serverConfig{n: 64, sampleEvery: 1000, workerName: "w1"}, sup)
	for i, want := range seq {
		if got := s2.retryAfter(); got != want {
			t.Fatalf("schedule diverged at %d: %q vs %q", i, got, want)
		}
	}
}

// TestTakeoverAdoptsCrashedSpill is the in-process half of the fleet handoff:
// POST /takeover hands this worker a dead peer's spill root; it steals the
// lease, replay-recovers the crashed run in place, and reports the adopted
// ids.
func TestTakeoverAdoptsCrashedSpill(t *testing.T) {
	const n = 512
	deadRoot := t.TempDir()

	// A dead peer's legacy: an incomplete spill under its root, lease held.
	seg, err := obs.NewSegmentSink(obs.SegmentConfig{
		Dir: deadRoot + "/run1", Design: "oclmon", SampleEvery: 1000,
		Meta:     map[string]string{"workload": "oclmon", "n": "512", "tenant": "acme"},
		MaxLines: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := launchWorkload(t, n, seg)
	if err := m.RunFor(40_000); err == nil {
		t.Fatal("workload finished before the crash point; raise n")
	}
	if _, err := obs.AcquireLease(deadRoot, "w-dead", obs.LeaseOptions{}); err != nil {
		t.Fatal(err)
	}

	sup := supervise.New(supervise.Config{Slots: 1})
	defer sup.Close()
	srv := newServer(serverConfig{
		n: 8192, sampleEvery: 1000, segLines: 64,
		spillDir: t.TempDir(), workerName: "w2",
	}, sup)
	if err := srv.recoverSpills(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.stopLeaseHeartbeat)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Without force, the live lease refuses the takeover.
	resp, err := http.Post(ts.URL+"/takeover", "application/json",
		strings.NewReader(fmt.Sprintf("{\"dir\":%q}", deadRoot)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unforced takeover of live lease = %d, want 409", resp.StatusCode)
	}

	// Forced (the front end reaped the corpse): lease stolen, run adopted.
	resp, err = http.Post(ts.URL+"/takeover", "application/json",
		strings.NewReader(fmt.Sprintf("{\"dir\":%q,\"force\":true}", deadRoot)))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Runs []string `json:"runs"`
	}
	if err := jsonDecode(resp, &out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Runs) != 1 || out.Runs[0] != "run1" {
		t.Fatalf("takeover = %d %+v", resp.StatusCode, out)
	}
	lease, err := obs.ReadLease(deadRoot)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Holder != "w2" {
		t.Fatalf("lease holder = %q, want w2", lease.Holder)
	}

	// The adopted run resumes in place — its spill stays under the dead
	// peer's root — and carries its recorded tenant.
	r := srv.get("run1")
	if r == nil || !r.recovered {
		t.Fatalf("adopted run not resumed: %+v", r)
	}
	if r.spill != deadRoot+"/run1" {
		t.Fatalf("adopted run spills to %q, want %q", r.spill, deadRoot+"/run1")
	}
	if r.tenant != "acme" {
		t.Fatalf("adopted run tenant = %q, want acme", r.tenant)
	}
	waitState(t, srv, "run1", supervise.StateCompleted)
	stitched, err := obs.LoadSegments(deadRoot + "/run1")
	if err != nil {
		t.Fatal(err)
	}
	if !stitched.Manifest.Complete {
		t.Fatalf("adopted run's spill not completed: %+v", stitched.Manifest)
	}

	// A repeated takeover of the same dir is idempotent: no duplicate runs.
	resp, err = http.Post(ts.URL+"/takeover", "application/json",
		strings.NewReader(fmt.Sprintf("{\"dir\":%q,\"force\":true}", deadRoot)))
	if err != nil {
		t.Fatal(err)
	}
	out.Runs = nil
	if err := jsonDecode(resp, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 0 {
		t.Fatalf("repeated takeover re-adopted runs: %v", out.Runs)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestSSECursorBounds drives the cursor with Last-Event-ID values before,
// inside, at the end of and beyond the stream, on a finalized run and on a
// live one that grows past every value while all its tails are open at once
// (sharing the sink's wake channel). Each tail gets exactly the frames after
// its id, then finalize.
func TestSSECursorBounds(t *testing.T) {
	const recorded = 10 // events in the sink when the tails connect
	ev := func(i int) obs.Event {
		return obs.Event{Kind: obs.KindLaunch, Track: "unit:k", Name: "go", Start: int64(i), End: int64(i)}
	}
	afters := []int64{-5, -1, recorded / 2, recorded - 1, recorded + 10}
	for _, live := range []bool{false, true} {
		t.Run(fmt.Sprintf("live=%v", live), func(t *testing.T) {
			total := recorded // a live run records 20 more events once its tails are open
			if live {
				total += 20
			}
			sink := newLiveSink("d", 0)
			for i := 0; i < recorded; i++ {
				sink.Event(ev(i))
			}
			if !live {
				sink.Finalize(recorded)
			}
			srv := newServer(serverConfig{n: 64, sampleEvery: 1000}, supervise.New(supervise.Config{Slots: 1}))
			srv.addRun(&run{id: "sse", workload: "oclmon", sink: sink, state: supervise.StateRunning})
			ts := httptest.NewServer(srv.handler())
			defer ts.Close()
			var tails []*http.Response
			for _, after := range afters {
				tails = append(tails, sseOpen(t, ts.URL+"/runs/sse/events", strconv.FormatInt(after, 10)))
			}
			for i := recorded; i < total; i++ {
				sink.Event(ev(i))
			}
			sink.Finalize(int64(total))
			for k, after := range afters {
				ids, frames := sseRead(t, tails[k])
				if frames != total {
					t.Fatalf("after %d: finalize frames = %d, want %d", after, frames, total)
				}
				first := max(after+1, 0)
				if want := max(int64(total)-first, 0); int64(len(ids)) != want {
					t.Fatalf("after %d: got %d frames %v, want the %d after it", after, len(ids), ids, want)
				}
				for i, id := range ids {
					if id != first+int64(i) {
						t.Fatalf("after %d: ids %v, want %d.. contiguous", after, ids, first)
					}
				}
			}
		})
	}
}
