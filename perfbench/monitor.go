package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oclfpga/internal/obs"
)

// monitor-sse: the oclmon service end to end. Set-up starts the repository's
// oclmon binary with a spill root and waits for /readyz; each op is
// POST /runs?n=… and then GET /runs/{id}/events read to the finalize frame.
// The client holds two connections: one for admission, one for the stream.
// The run recipe is oclmon's own (its fixed producer/consumer inputs), so
// the seed chooses no server-side input.
const (
	monItems = 1024
	// monSpillBudget bounds the spill root. Admission evicts the oldest
	// completed runs beyond it, and with them their in-memory records, so
	// the server's memory and disk stay flat over a run of hundreds of ops.
	monSpillBudget = 8 << 20
)

type monitor struct {
	e        *env
	cmd      *exec.Cmd
	base     string // http://host:port
	spill    string
	starts   int
	admit    *http.Client
	stream   *http.Client
	endCycle int64 // the first op's finalize endCycle; every later op must match

	tracedOps int           // traced ops so far
	tracedCPU time.Duration // child CPU over traced ops
}

func newMonitor(e *env) bench { return &monitor{e: e} }

func (m *monitor) setup() error {
	if m.e.oclmon == "" {
		return errors.New("monitor-sse needs --oclmon")
	}
	m.stop()
	m.starts++
	m.spill = filepath.Join(m.e.root, "oclmon-"+strconv.Itoa(m.starts))
	logPath := m.spill + ".log"
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logf.Close()
	m.cmd = exec.Command(m.e.oclmon, "-addr", "127.0.0.1:0", "-runs", "0",
		"-spill-dir", m.spill, "-spill-budget", strconv.Itoa(monSpillBudget))
	m.cmd.Stdout, m.cmd.Stderr = logf, logf
	// oclmon must not outlive the benchmark, however the benchmark ends.
	m.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := m.cmd.Start(); err != nil {
		m.cmd = nil
		return err
	}
	// The work runs in oclmon: its peak RSS is reported, and its CPU added.
	m.e.proc, m.e.childCPU = m.procDir(), m.childCPU
	deadline := time.Now().Add(30 * time.Second)
	for m.base == "" {
		if time.Now().After(deadline) {
			return errors.New("oclmon did not announce its address")
		}
		raw, _ := os.ReadFile(logPath)
		if _, rest, ok := strings.Cut(string(raw), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				m.base = addr
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	m.admit = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	m.stream = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	for {
		resp, err := m.admit.Get(m.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("oclmon not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop ends the running oclmon, waits for it, and removes its spill root.
func (m *monitor) stop() {
	if m.cmd == nil {
		return
	}
	// Signal and Kill fail only if the process has already exited, which
	// Wait then reports; the exit status of a stopped server is not needed.
	_ = m.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = m.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = m.cmd.Process.Kill()
		<-done
	}
	for _, c := range []*http.Client{m.admit, m.stream} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	os.RemoveAll(m.spill)
	os.Remove(m.spill + ".log")
	m.cmd, m.base = nil, ""
}

func (m *monitor) close() { m.stop() }

// sseRead is one stream's tally: frames keyed by id, so a frame shed to a
// slow subscriber and re-fetched on reconnect counts once.
type sseRead struct {
	frames     map[int64]int // id -> frame bytes
	finalBytes int
	endCycle   int64
	firstEvent time.Duration
	shed       int // frames the live stream lost and the reconnect recovered
}

func (m *monitor) op(l *ledger) (opOut, error) {
	var cpu0 int64
	if l != nil {
		cpu0 = m.childTicks()
	}
	var id string
	var rd *sseRead
	var err error
	c := m.e.startOp(l)
	l.time("oclmon.admit", func() { id, err = m.post() })
	if err == nil {
		l.time("oclmon.sse", func() { rd, err = m.tail(id, c.t0) })
	}
	st := m.e.stopOp(l, c)
	if err != nil {
		return opOut{}, err
	}
	return m.check(l, id, rd, st, cpu0)
}

func (m *monitor) post() (string, error) {
	resp, err := m.admit.Post(m.base+"/runs?n="+strconv.Itoa(monItems), "", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /runs: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var ack struct{ ID string }
	if err := json.Unmarshal(body, &ack); err != nil {
		return "", fmt.Errorf("POST /runs: %w", err)
	}
	return ack.ID, nil
}

// tail reads the run's event stream to the finalize frame, live, and then
// reconnects once after the last contiguous frame id. The server sheds
// frames a slow reader has not taken, and a frame shed at the tail leaves no
// gap a client could see, so only the reconnect (served from the finalized
// record's backlog) proves the client holds every frame.
func (m *monitor) tail(id string, t0 time.Time) (*sseRead, error) {
	rd := &sseRead{frames: map[int64]int{}}
	if err := m.readStream(id, -1, t0, rd); err != nil {
		return nil, err
	}
	next := int64(0)
	for _, ok := rd.frames[next]; ok; _, ok = rd.frames[next] {
		next++
	}
	live := len(rd.frames)
	if err := m.readStream(id, next-1, t0, rd); err != nil {
		return nil, err
	}
	rd.shed = len(rd.frames) - live
	return rd, nil
}

func (m *monitor) readStream(id string, after int64, t0 time.Time, rd *sseRead) error {
	req, err := http.NewRequest(http.MethodGet, m.base+"/runs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if after >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	resp, err := m.stream.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: %s", resp.Status)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var frame []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("event stream ended before finalize: %w", err)
		}
		frame = append(frame, line...)
		if len(line) > 1 {
			continue
		}
		// A blank line ends the frame.
		switch {
		case bytes.HasPrefix(frame, []byte("id: ")):
			nl := bytes.IndexByte(frame, '\n')
			seq, err := strconv.ParseInt(string(frame[4:nl]), 10, 64)
			if err != nil {
				return fmt.Errorf("bad frame id %q", frame[:nl])
			}
			if rd.firstEvent == 0 {
				rd.firstEvent = time.Since(t0)
			}
			if _, dup := rd.frames[seq]; !dup {
				rd.frames[seq] = len(frame)
			}
		case bytes.HasPrefix(frame, []byte("event: finalize\n")):
			var fin struct{ EndCycle int64 }
			data := bytes.TrimPrefix(frame[len("event: finalize\n"):], []byte("data: "))
			if err := json.Unmarshal(bytes.TrimSpace(data), &fin); err != nil {
				return fmt.Errorf("finalize frame: %w", err)
			}
			rd.endCycle, rd.finalBytes = fin.EndCycle, len(frame)
			_, err := io.Copy(io.Discard, br) // let the connection be reused
			return err
		}
		frame = frame[:0]
	}
}

// check runs after the op's clock stops: the finalize endCycle repeats the
// first op's, and the run's spill is complete and loads with verified CRCs.
func (m *monitor) check(l *ledger, id string, rd *sseRead, st opStats, cpu0 int64) (opOut, error) {
	if m.endCycle == 0 {
		m.endCycle = rd.endCycle
	} else if rd.endCycle != m.endCycle {
		return opOut{}, fmt.Errorf("finalize endCycle %d, first op's %d", rd.endCycle, m.endCycle)
	}
	dir := filepath.Join(m.spill, id)
	if err := m.completedSpill(dir, rd.endCycle); err != nil {
		return opOut{}, err
	}
	spilled, err := dirBytes(dir)
	if err != nil {
		return opOut{}, err
	}
	sseBytes := rd.finalBytes
	for _, n := range rd.frames {
		sseBytes += n
	}
	out := opOut{opStats: st, counts: map[string]int64{
		"sim.cycles": rd.endCycle, "oclmon.sse_frames": int64(len(rd.frames)), "spill_bytes": spilled,
	}}
	if l != nil {
		cpu := time.Duration(m.childTicks()-cpu0) * time.Second / clockTicks
		m.tracedOps++
		m.tracedCPU += cpu
		if out.layers, err = m.runCounts(id); err != nil {
			return opOut{}, err
		}
		out.layers["sim.cycles"] = float64(rd.endCycle)
		out.layers["oclmon.first_event_ms"] = ms(rd.firstEvent)
		out.layers["oclmon.sse_frames"] = float64(len(rd.frames))
		out.layers["oclmon.sse_bytes"] = float64(sseBytes)
		out.layers["oclmon.sse_shed_frames"] = float64(rd.shed)
		out.layers["spill_bytes_per_mcycle"] = float64(spilled) / (float64(rd.endCycle) / 1e6)
	}
	return out, nil
}

// runCounts reads the run's recorder counts from oclmon's /metrics, the
// benchmark's only view of the recorder inside the server.
func (m *monitor) runCounts(id string) (map[string]float64, error) {
	resp, err := m.admit.Get(m.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]string{
		"oclmon_events_total": "obs.events", "oclmon_samples_total": "obs.samples", "oclmon_ff_jumps_total": "sim.ff_jumps",
	}
	label := fmt.Sprintf("{run=%q} ", id)
	counts := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), label)
		if metric, known := want[name]; ok && known {
			if counts[metric], err = strconv.ParseFloat(v, 64); err != nil {
				return nil, fmt.Errorf("/metrics %s: %w", name, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(counts) != len(want) {
		return nil, fmt.Errorf("/metrics lacks run %s's recorder counts", id)
	}
	return counts, nil
}

// unmeasured names the per-layer metrics whose layers run inside oclmon,
// out of the benchmark's sight: its compiler, machine, supervisor, segment
// sink and VFS.
func (m *monitor) unmeasured() []string {
	return []string{
		"hls.compile_ms", "sim.build_ms", "sim.self_ms", "sim.ns_per_stepped_cycle", "sim.simcycles_per_s",
		"sim.stepped_cycles", "obs.record_ms", "sink.open_ms", "sink.event_ms", "sink.sample_ms",
		"sink.finalize_ms", "sink.ns_per_line", "vfs.fsyncs", "vfs.renames", "vfs.files_created",
		"vfs.writefiles", "vfs.segment_bytes", "vfs.sidecar_bytes", "vfs.write_ms", "vfs.fsync_ms",
		"vfs.writefile_ms", "vfs.rename_ms", "vfs.create_ms", "supervise.admit_wait_ms",
		"supervise.finish_lag_ms",
	}
}

// completedSpill loads the run's spill with CRC verification once its
// manifest is complete. The live stream's finalize frame can reach the
// client before the spill's own Finalize commits the manifest (the server
// fans out to the live sink first), so an incomplete manifest is re-read for
// a while before the op is failed.
func (m *monitor) completedSpill(dir string, endCycle int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		log, err := obs.LoadSegments(dir)
		if err != nil {
			return err
		}
		if log.Manifest.Complete {
			if log.Manifest.EndCycle != endCycle {
				return fmt.Errorf("spill %s ends at cycle %d, stream at %d", dir, log.Manifest.EndCycle, endCycle)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("spill %s still incomplete after the stream finalized", dir)
		}
		time.Sleep(time.Millisecond)
	}
}

// finalLayers reports the server's CPU per traced op as a mean: the kernel
// counts it in 10 ms ticks, too coarse for a per-op median.
func (m *monitor) finalLayers() map[string]float64 {
	if m.tracedOps == 0 {
		return nil
	}
	return map[string]float64{"oclmon.server_cpu_ms": ms(m.tracedCPU) / float64(m.tracedOps)}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// childTicks is oclmon's user+sys CPU in clock ticks.
func (m *monitor) childTicks() int64 {
	raw, err := os.ReadFile(m.procDir() + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return u + st
}

func (m *monitor) childCPU() time.Duration {
	return time.Duration(m.childTicks()) * time.Second / clockTicks
}

func (m *monitor) procDir() string { return fmt.Sprintf("/proc/%d", m.cmd.Process.Pid) }
