package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oclfpga/internal/obs"
)

// oclmonBin is the real worker binary, built once per test run — the chaos
// tests exercise actual processes, SIGKILL and all, not in-process fakes.
var oclmonBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "oclmon-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	oclmonBin = filepath.Join(tmp, "oclmon")
	cmd := exec.Command("go", "build", "-o", oclmonBin, "oclfpga/cmd/oclmon")
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build oclmon: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// startFleet spawns a real two-worker fleet over the given spill root.
// NoRespawn keeps the post-kill fleet degraded so the tests can assert on it.
func startFleet(t *testing.T, root string, workerArgs ...string) (*Frontend, *httptest.Server) {
	t.Helper()
	fe := New(Config{
		Workers:    2,
		SpillRoot:  root,
		NoRespawn:  true,
		ProbeEvery: 200 * time.Millisecond,
		Logf:       t.Logf,
		Spawn: func(name, dir string) *exec.Cmd {
			args := append([]string{
				"-addr", "localhost:0", "-runs", "0",
				"-worker-name", name, "-spill-dir", dir,
				"-seg-lines", "64", "-lease-ttl", "2s",
			}, workerArgs...)
			return exec.Command(oclmonBin, args...)
		},
	})
	if err := fe.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fe.Close)
	ts := httptest.NewServer(fe.Handler())
	t.Cleanup(ts.Close)
	return fe, ts
}

type indexEntry struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Done      bool   `json:"done"`
	Recovered bool   `json:"recovered"`
	Worker    string `json:"worker"`
	Error     string `json:"error"`
}

func fleetIndex(t *testing.T, base string) []indexEntry {
	t.Helper()
	resp, err := http.Get(base + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []indexEntry
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func submitRun(t *testing.T, base string, n int) (id, worker string) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/runs?n=%d", base, n), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", resp.StatusCode, body)
	}
	var out struct {
		ID     string `json:"id"`
		Worker string `json:"worker"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.ID == "" || out.Worker == "" {
		t.Fatalf("bad admit response %q", body)
	}
	return out.ID, out.Worker
}

func waitRunDone(t *testing.T, base, id string, timeout time.Duration) indexEntry {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, e := range fleetIndex(t, base) {
			if e.ID == id && e.Done {
				if e.State != "completed" {
					t.Fatalf("run %s finished %s (%s)", id, e.State, e.Error)
				}
				return e
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("run %s never completed; index: %+v", id, fleetIndex(t, base))
	return indexEntry{}
}

// replayDir replays a complete spill dir into canonical timeline and series
// bytes — the byte-identity currency of the recovery contract.
func replayDir(t *testing.T, dir string) (timeline, series []byte) {
	t.Helper()
	slog, err := obs.LoadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slog.Manifest.Complete {
		t.Fatalf("spill %s not complete: %+v", dir, slog.Manifest)
	}
	tl, ser, err := slog.Replay()
	if err != nil {
		t.Fatal(err)
	}
	var tb, sb bytes.Buffer
	if err := obs.WriteTimeline(&tb, tl); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSeries(&sb, ser); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), sb.Bytes()
}

// TestFleetChaosRecovery is the headline robustness test: SIGKILL the worker
// that owns an in-flight run, and the survivor must steal the spill-dir
// lease, replay-recover the run across the process boundary, and finish it —
// with the stitched durable record byte-identical to an uninterrupted run of
// the same workload. Exercised with fast-forward on and off, since the two
// paths produce (and must reproduce) different event streams.
func TestFleetChaosRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	for _, tc := range []struct {
		name string
		n    int
		args []string
	}{
		{name: "ff-on", n: 20000},
		{name: "ff-off", n: 20000, args: []string{"-no-fastforward"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			fe, ts := startFleet(t, root, tc.args...)

			id, owner := submitRun(t, ts.URL, tc.n)
			dir := filepath.Join(root, owner, id)

			// Wait for a sealed segment — a durable prefix worth recovering —
			// then kill the owner mid-run via the chaos endpoint.
			deadline := time.Now().Add(30 * time.Second)
			for {
				if sealed, _ := filepath.Glob(filepath.Join(dir, "seg-*.flat")); len(sealed) > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no sealed segment ever appeared in %s", dir)
				}
				time.Sleep(5 * time.Millisecond)
			}
			resp, err := http.Post(ts.URL+"/fleet/kill?worker="+owner, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/fleet/kill = %d", resp.StatusCode)
			}

			// The kill must have landed mid-run, or the test proved nothing.
			slog, err := obs.LoadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if slog.Manifest.Complete {
				t.Fatalf("run completed before the kill; raise n above %d", tc.n)
			}

			// The survivor adopts the orphaned dir and finishes the run.
			final := waitRunDone(t, ts.URL, id, 90*time.Second)
			if !final.Recovered {
				t.Fatalf("run %s finished without the recovery path: %+v", id, final)
			}
			if final.Worker == owner {
				t.Fatalf("run %s still reported by the dead worker %s", id, owner)
			}

			// Degraded-but-serving: one worker dead, /readyz stays 200 and
			// says so (NoRespawn keeps the fleet at reduced strength).
			rz, err := http.Get(ts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := io.ReadAll(rz.Body)
			rz.Body.Close()
			if rz.StatusCode != http.StatusOK || !strings.Contains(string(rb), "degraded: 1/2") {
				t.Fatalf("/readyz after kill = %d %q, want 200 degraded 1/2", rz.StatusCode, rb)
			}

			// Byte-identity: the stitched record (durable prefix from the dead
			// worker + the survivor's verified resume) replays to the same
			// bytes as an uninterrupted run of the identical workload.
			refID, refWorker := submitRun(t, ts.URL, tc.n)
			waitRunDone(t, ts.URL, refID, 90*time.Second)
			gotTL, gotSer := replayDir(t, dir)
			wantTL, wantSer := replayDir(t, filepath.Join(root, refWorker, refID))
			if !bytes.Equal(gotTL, wantTL) {
				t.Fatalf("recovered timeline differs from uninterrupted run (%d vs %d bytes)", len(gotTL), len(wantTL))
			}
			if !bytes.Equal(gotSer, wantSer) {
				t.Fatal("recovered series differs from uninterrupted run")
			}

			// The takeover was recorded — lease stolen, routes moved.
			if n, _ := fe.Takeovers(); n == 0 {
				t.Fatal("no takeover recorded")
			}
			lease, err := obs.ReadLease(filepath.Join(root, owner))
			if err != nil {
				t.Fatal(err)
			}
			if lease == nil || lease.Holder == owner {
				t.Fatalf("dead worker's lease not stolen: %+v", lease)
			}
		})
	}
}
