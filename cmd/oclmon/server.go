package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"oclfpga/internal/fleet"
	"oclfpga/internal/obs"
	"oclfpga/internal/obs/analyze"
	"oclfpga/internal/obs/diff"
	"oclfpga/internal/obs/query"
	"oclfpga/internal/obs/scrub"
	"oclfpga/internal/sim"
	"oclfpga/internal/supervise"
	"oclfpga/internal/workload"
)

// serverConfig is everything the HTTP layer needs to host supervised runs.
type serverConfig struct {
	n           int   // default items per run
	sampleEvery int64 // metrics sampling interval
	noFF        bool
	spillDir    string // root directory for durable spill ("" disables)
	segLines    int    // spill segment rotation (payload records)
	segBytes    int64  // spill segment rotation (payload bytes)
	ckptEvery   int64  // checkpoint interval in cycles (0 disables; enables fast at-cycle rewind)
	// spillBudget caps the spill root's total bytes (0 = unlimited). At boot
	// and at every admission, quarantined runs and then the oldest completed
	// ones are evicted until the root fits; live runs are never evicted.
	spillBudget int64

	// workerName is this process's fleet identity ("" = single-process
	// mode). When set, run ids are prefixed "<name>-", the spill dir is
	// guarded by an ownership lease with heartbeat renewal, and POST
	// /takeover lets the front end hand this worker a dead peer's spill dir.
	workerName string
	leaseTTL   time.Duration
	// retrySeed seeds the jittered Retry-After schedule (default: derived
	// from workerName so workers de-synchronize their clients differently).
	retrySeed int64
	// quota, when set, is the per-tenant weighted admission quota also wired
	// into the supervisor; the server only reads it for /metrics.
	quota *fleet.WeightedQuota

	// fs, when set, is the filesystem spill sinks write through — tests inject
	// an obs.FaultFS to drive the admission path into ENOSPC/EIO.
	fs obs.VFS

	// sseKeepalive is the idle interval after which an SSE tail emits a
	// `: keepalive` comment frame so proxies and clients do not time out a
	// quiet stream (a fast-forwarded run can go seconds without an event).
	// Tests inject a short interval; zero means the 15s default.
	sseKeepalive time.Duration

	// startHook, when set, replaces the workload builder — tests use it to
	// inject blocking or failing runs without compiling designs.
	startHook func(n int) func() (*sim.Machine, error)
}

// run is one hosted simulation (live, recovered, or quarantined). Telemetry
// reads go through the liveSink's mutex-guarded copies; lifecycle state is
// guarded separately here because it is written from supervisor goroutines.
type run struct {
	id        string
	workload  string
	tenant    string
	sink      *liveSink
	spill     string // this run's spill directory ("" when not spilling)
	recovered bool   // rebuilt or resumed from a spill at startup
	// spec is the run's recipe — the one its spill records — which the
	// at-cycle rewind re-executes; nil when the spill's spec is unusable.
	spec *workload.RunSpec
	// quarantinedSpill marks a run whose spill the boot scrubber could not
	// repair: the directory carries a quarantine marker and the run is hosted
	// only as a degraded verdict (no telemetry, no query surface).
	quarantinedSpill bool

	mu      sync.Mutex
	state   supervise.State
	outcome *supervise.Outcome

	// Cached baseline verdict: computing a diff walks both runs' full event
	// streams, so the result is memoized per baseline run id — /runs and
	// /metrics scrape it freely, and re-pinning the baseline invalidates it.
	diffMu      sync.Mutex
	diffBase    string
	diffVerdict diff.Verdict
}

func (r *run) setState(st supervise.State) {
	r.mu.Lock()
	r.state = st
	r.mu.Unlock()
}

func (r *run) status() (supervise.State, *supervise.Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state, r.outcome
}

// finish records the terminal outcome and retires the live sink.
func (r *run) finish(m *sim.Machine, out supervise.Outcome) {
	r.mu.Lock()
	r.state = out.State
	r.outcome = &out
	r.mu.Unlock()
	var dropped int64
	if m != nil {
		func() {
			defer func() { recover() }() // a panicked run may hold a mid-tick machine
			if rec := m.Observer(); rec != nil {
				dropped = rec.DroppedEvents()
			}
		}()
	}
	r.sink.retire(dropped, out.Err)
	if out.Err != nil {
		log.Printf("run %s: %s: %v", r.id, out.State, out.Err)
	}
	if r.spill == "" {
		return
	}
	if man, err := obs.LoadManifest(r.spill); err == nil && man.Complete {
		r.sink.serve(r.spill)
	}
}

// server owns the run registry and the supervisor behind it.
type server struct {
	cfg serverConfig
	sup *supervise.Supervisor

	mu     sync.Mutex
	runs   []*run
	byID   map[string]*run
	nextID int

	// baselines maps workload -> the pinned baseline run id. Runs of a
	// workload with a pinned baseline carry a diff verdict in /runs and an
	// oclmon_run_regressed gauge in /metrics once both runs complete.
	baseMu    sync.Mutex
	baselines map[string]string

	// leases are the spill-dir ownership claims this process holds (its own
	// dir plus adopted ones), renewed by a single heartbeat goroutine. Losing
	// one is fatal by design: another worker owns the bytes now.
	leaseMu       sync.Mutex
	leases        []*obs.Lease
	heartbeat     sync.Once
	heartbeatOff  sync.Once
	heartbeatDone chan struct{}

	retryMu    sync.Mutex
	retryCount int64
}

func newServer(cfg serverConfig, sup *supervise.Supervisor) *server {
	if cfg.segLines <= 0 {
		cfg.segLines = 4096
	}
	if cfg.segBytes <= 0 {
		cfg.segBytes = 1 << 20
	}
	if cfg.leaseTTL <= 0 {
		cfg.leaseTTL = 10 * time.Second
	}
	if cfg.retrySeed == 0 {
		for _, c := range cfg.workerName {
			cfg.retrySeed = cfg.retrySeed*31 + int64(c)
		}
		cfg.retrySeed++
	}
	if cfg.sseKeepalive <= 0 {
		cfg.sseKeepalive = 15 * time.Second
	}
	return &server{
		cfg: cfg, sup: sup, byID: map[string]*run{},
		baselines:     map[string]string{},
		heartbeatDone: make(chan struct{}),
	}
}

// retryAfter returns the next jittered Retry-After value (whole seconds,
// ceiling) for a 429: base one second stretched by supervise.Backoff's
// seeded jitter, a fresh seed per response, so a thundering herd of shed
// clients does not retry in lockstep and re-saturate the queue in one wave.
func (s *server) retryAfter() string {
	s.retryMu.Lock()
	seed := s.cfg.retrySeed + s.retryCount
	s.retryCount++
	s.retryMu.Unlock()
	d := supervise.Backoff{
		Base: time.Second.Nanoseconds(), Max: time.Second.Nanoseconds(),
		Jitter: 2.0, Seed: seed,
	}.Schedule(1)[0]
	return strconv.FormatInt((d+time.Second.Nanoseconds()-1)/time.Second.Nanoseconds(), 10)
}

func (s *server) addRun(r *run) {
	s.mu.Lock()
	s.runs = append(s.runs, r)
	s.byID[r.id] = r
	s.mu.Unlock()
}

func (s *server) dropRun(r *run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byID, r.id)
	for i, x := range s.runs {
		if x == r {
			s.runs = append(s.runs[:i], s.runs[i+1:]...)
			break
		}
	}
}

func (s *server) allRuns() []*run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*run(nil), s.runs...)
}

func (s *server) get(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// newID reserves the next free run id (run1, run2, ... — prefixed with the
// worker name in fleet mode so ids are globally unique across the fleet),
// skipping ids taken by recovered runs.
func (s *server) newID() string {
	prefix := ""
	if s.cfg.workerName != "" {
		prefix = s.cfg.workerName + "-"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.nextID++
		id := fmt.Sprintf("%srun%d", prefix, s.nextID)
		if _, taken := s.byID[id]; !taken {
			return id
		}
	}
}

// buildStart constructs the supervised Start closure for a fresh or resumed
// run: build the run's spec with the live sink attached (and the segment
// spill, fanned out) — compile, buffers, launch. The supervisor then drives
// the machine in watchdog slices, which record exactly what one Run would.
// It runs inside the supervisor worker so compile/launch panics are isolated
// like run panics. seg receives the spill sink for the FinalizeRetry hook.
func (s *server) buildStart(r *run, resume *obs.Manifest, seg **obs.SegmentSink) func() (*sim.Machine, error) {
	if s.cfg.startHook != nil {
		hook := s.cfg.startHook(r.spec.N)
		return func() (*sim.Machine, error) {
			r.setState(supervise.StateRunning)
			return hook()
		}
	}
	return func() (*sim.Machine, error) {
		var sink obs.Sink = r.sink
		if r.spill != "" {
			ss := *seg // fresh runs: created eagerly at admission
			if ss == nil {
				var err error
				ss, err = obs.NewResumeSink(s.segmentConfig(r), resume)
				if err != nil {
					return nil, err
				}
				*seg = ss
			}
			// Spill first: Fanout finalizes in order, so the manifest is
			// committed before the live sink closes its SSE streams — a
			// client that has read the finalize frame finds the spill
			// complete (when the first commit attempt succeeds).
			sink = obs.NewFanout(ss, r.sink)
		}
		b, err := r.spec.Build(r.spec.Observe(sink))
		if err != nil {
			return nil, err
		}
		r.setState(supervise.StateRunning)
		return b.M, nil
	}
}

// segmentConfig is the spill configuration recording r: its spec plus this
// server's rotation thresholds and filesystem.
func (s *server) segmentConfig(r *run) obs.SegmentConfig {
	cfg := r.spec.SegmentConfig(r.spill)
	cfg.MaxLines, cfg.MaxBytes, cfg.FS = s.cfg.segLines, s.cfg.segBytes, s.cfg.fs
	return cfg
}

// admit submits a fresh run of this server's workload. Its spec records the
// server's run shape and the cycle budget the supervisor resolves lim to: a
// run that exhausts its budget ends there, so the budget shapes the stream.
func (s *server) admit(n int, tenant string, lim supervise.Limits) (*run, error) {
	return s.submit("", workload.RunSpec{
		Workload: "oclmon", N: n, Tenant: tenant,
		SampleEvery: s.cfg.sampleEvery, CheckpointEvery: s.cfg.ckptEvery, DisableFF: s.cfg.noFF,
		CycleBudget: s.sup.EffectiveLimits(lim).CycleBudget,
	}, lim, nil, "")
}

// submit admits one run through the supervisor. resume is the manifest of
// the spill in resumeDir when re-executing a crashed run at startup or
// takeover (id is then the spill directory's name, and the spill stays
// there — which for an adopted run is under the dead peer's root). Shed
// submissions (ErrSaturated, ErrTenantSaturated) leave no trace in the
// registry; quarantined ones are recorded in their terminal state.
func (s *server) submit(id string, spec workload.RunSpec, lim supervise.Limits, resume *obs.Manifest, resumeDir string) (*run, error) {
	if id == "" {
		id = s.newID()
	}
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	r := &run{
		id: id, workload: spec.Workload, tenant: spec.Tenant, recovered: resume != nil, spec: &spec,
		sink:  newLiveSink(spec.Workload, spec.SampleEvery),
		state: supervise.StateQueued,
	}
	if resume != nil {
		r.spill = resumeDir
	} else if s.cfg.spillDir != "" {
		r.spill = filepath.Join(s.cfg.spillDir, id)
	}
	var seg *obs.SegmentSink
	if r.spill != "" && resume == nil && s.cfg.startHook == nil {
		// Admission is where the disk budget is enforced: reclaim evictable
		// spill before committing new bytes, and refuse the run (typed, so the
		// HTTP layer answers 503 backpressure) if the disk still cannot take
		// the manifest — never admit onto a disk that cannot record the run.
		s.gcSpill()
		// The spill manifest is written before the 202, making the on-disk
		// directory the durable admission record: a worker killed while this
		// run is still queued leaves a recoverable (empty-prefix) log, so a
		// takeover re-executes it instead of silently dropping acknowledged
		// work. The manifest's Meta records the run's spec: everything a
		// byte-identical re-execution needs.
		ss, err := obs.NewSegmentSink(s.segmentConfig(r))
		if err != nil {
			// A half-born spill stub must not survive to be "recovered" as a
			// crashed run on the next boot.
			os.RemoveAll(r.spill)
			return nil, err
		}
		seg = ss
	}
	s.addRun(r)
	err := s.sup.Submit(supervise.Spec{
		ID: id, Workload: r.workload, Tenant: r.tenant, Limits: lim,
		Start: s.buildStart(r, resume, &seg),
		Done:  func(m *sim.Machine, out supervise.Outcome) { r.finish(m, out) },
		FinalizeRetry: func() error {
			if seg == nil {
				return errors.New("no spill sink to retry")
			}
			return seg.RetryFinalize()
		},
	})
	if errors.Is(err, supervise.ErrSaturated) || errors.Is(err, supervise.ErrTenantSaturated) {
		s.dropRun(r)
		if seg != nil && resume == nil {
			// A shed submission was never acknowledged; its eager spill stub
			// must not survive to be "recovered" as a crashed run.
			os.RemoveAll(r.spill)
		}
		return nil, err
	}
	return r, err
}

// recoverSpills claims this process's own spill root (taking the ownership
// lease in fleet mode) and replays every run recorded under it.
func (s *server) recoverSpills() error {
	if s.cfg.spillDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.spillDir, 0o777); err != nil {
		return err
	}
	if err := s.acquireLease(s.cfg.spillDir, false); err != nil {
		return err
	}
	_, err := s.recoverDir(s.cfg.spillDir)
	if err == nil {
		s.gcSpill()
	}
	return err
}

// quarantine marks dir unrepairable with reason — a marker later boots honor
// without re-judging — and registers the run as quarantined.
func (s *server) quarantine(id, dir, reason string, damage []scrub.Damage) {
	if err := scrub.Quarantine(dir, reason, damage, time.Now().UTC().Format(time.RFC3339)); err != nil {
		log.Printf("oclmon: spill %s: quarantine marker: %v", dir, err)
	}
	s.addQuarantined(id, dir, reason)
}

// addQuarantined hosts an unrepairable spill as a degraded terminal run: the
// verdict is visible in /runs and /metrics (oclmon_runs_quarantined), but no
// telemetry is loaded — bytes that failed their checksums are never served.
func (s *server) addQuarantined(id, dir, reason string) {
	r := &run{
		id: id, workload: "oclmon", spill: dir, recovered: true, quarantinedSpill: true,
		sink:  newLiveSink("oclmon", s.cfg.sampleEvery),
		state: supervise.StateQuarantined,
	}
	r.outcome = &supervise.Outcome{State: supervise.StateQuarantined, Err: fmt.Errorf("spill quarantined: %s", reason)}
	r.sink.retire(0, nil)
	s.addRun(r)
	log.Printf("oclmon: spill %s quarantined: %s", dir, reason)
}

// gcSpill enforces the spill root's disk budget: quarantined directories are
// reclaimed first (their bytes are already untrustworthy), then the oldest
// completed runs; incomplete spills and runs still in flight are never
// evicted. An evicted run leaves the registry too — its durable record is
// gone, so continuing to serve it would outlive the evidence.
func (s *server) gcSpill() {
	if s.cfg.spillDir == "" || s.cfg.spillBudget <= 0 {
		return
	}
	rep, err := scrub.GC(s.cfg.spillDir, s.cfg.spillBudget, func(dir string) bool {
		r := s.get(filepath.Base(dir))
		if r == nil {
			return false
		}
		st, _ := r.status()
		done := st == supervise.StateCompleted || st == supervise.StateFailed || st == supervise.StateQuarantined
		return !done
	})
	if err != nil {
		log.Printf("oclmon: spill gc: %v", err)
		return
	}
	for _, e := range rep.Entries {
		if !e.Evicted {
			continue
		}
		if r := s.get(filepath.Base(e.Dir)); r != nil {
			s.dropRun(r)
		}
		log.Printf("oclmon: spill gc: evicted %s (%d bytes)", e.Dir, e.Bytes)
	}
	if rep.OverBudget {
		log.Printf("oclmon: spill gc: still over budget after eviction (%d of %d bytes) — live runs are never evicted",
			rep.BytesAfter, rep.Budget)
	}
}

// recoverDir replays the durable record of every run found under dir:
// complete logs become static, already-finalized runs; a log a crash left
// incomplete is re-executed deterministically from its manifest alone (the
// resume sink proves each sealed segment's fingerprint and appends the
// rest). A healthy complete spill is read and CRC-checked once, by its
// load; a spill that load refuses, and every incomplete one, goes through
// the boot scrub first. It returns the ids of every run it registered — the
// takeover path reports these to the front end so routes move to this
// worker.
func (s *server) recoverDir(root string) ([]string, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		id := ent.Name()
		if s.get(id) != nil {
			continue // already hosted (idempotent takeover retry)
		}
		dir := filepath.Join(root, id)
		if q, ok := scrub.Quarantined(dir); ok {
			// A prior boot already judged this spill unrepairable; the verdict
			// stands until an operator repairs and unquarantines the directory
			// (obscheck -fsck -repair removes the marker on success).
			s.addQuarantined(id, dir, q.Reason)
			ids = append(ids, id)
			continue
		}
		man, err := obs.LoadManifest(dir)
		var slog *obs.SegmentLog
		if err == nil && man.Complete {
			slog, err = obs.LoadSegments(dir)
		}
		if err == nil && slog != nil {
			// Only commit debris can remain, and the listing finds it.
			var removed []string
			if removed, err = scrub.Sweep(dir, man); len(removed) > 0 {
				log.Printf("oclmon: spill %s: boot sweep removed %d orphans", dir, len(removed))
			}
		}
		if err != nil || !man.Complete {
			if !s.bootScrub(id, dir) {
				ids = append(ids, id)
				continue
			}
			if man, err = obs.LoadManifest(dir); err == nil && man.Complete {
				slog, err = obs.LoadSegments(dir)
			}
		}
		if err != nil {
			log.Printf("oclmon: spill %s: unrecoverable: %v", dir, err)
			continue
		}
		if slog != nil {
			r := &run{
				id: id, workload: slog.Manifest.Meta["workload"], spill: dir, recovered: true,
				sink:  newLiveSink(slog.Manifest.Design, slog.Manifest.SampleEvery),
				state: supervise.StateCompleted,
			}
			if spec, err := workload.SpecFromManifest(&slog.Manifest); err == nil {
				r.spec = &spec // the at-cycle rewind re-executes it
			}
			slog.Feed(r.sink)
			r.sink.Finalize(slog.Manifest.EndCycle)
			r.sink.retire(0, nil)
			r.sink.serve(dir)
			s.addRun(r)
			ids = append(ids, id)
			log.Printf("oclmon: recovered completed run %s from spill (%d events to cycle %d)",
				id, len(slog.Lines), slog.Manifest.EndCycle)
			continue
		}
		spec, err := workload.SpecFromManifest(man)
		if err != nil {
			// A spec no re-execution can reproduce (a refused version-1
			// supervised spec, say) leaves the crashed run unresumable.
			s.quarantine(id, dir, fmt.Sprintf("cannot resume: %v", err), nil)
			ids = append(ids, id)
			continue
		}
		log.Printf("oclmon: re-executing crashed run %s: verifying %d sealed segments to cycle %d, then resuming",
			id, len(man.Segments), man.LastCycle())
		// Resume the recorded spec under its recorded cycle budget: the resume
		// sink fingerprint-verifies the sealed prefix against the re-executed
		// stream, which this server's watchdog slicing does not shape.
		if _, err := s.submit(id, spec, supervise.Limits{CycleBudget: spec.CycleBudget}, man, dir); err != nil {
			log.Printf("oclmon: recover %s: %v", id, err)
			continue
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// bootScrub scans a spill its plain load could not vouch for: it repairs
// what it can (commit debris, and corrupt segments by deterministic
// re-execution of the spec the manifest records, never this server's
// current flags) and quarantines what it cannot — a spill of another format
// version included — reporting false then. A damaged spill must never be
// served as a wrong answer.
func (s *server) bootScrub(id, dir string) bool {
	rep, err := scrub.Scan(dir)
	if err != nil {
		s.quarantine(id, dir, err.Error(), nil)
		return false
	}
	if rep.Healthy {
		return true
	}
	res, err := scrub.Repair(dir, workload.Rebuild)
	if err != nil || !res.Healthy {
		reason := fmt.Sprintf("%d findings unrepaired", len(rep.Damage))
		if err != nil {
			reason = err.Error()
		}
		s.quarantine(id, dir, reason, rep.Damage)
		return false
	}
	log.Printf("oclmon: spill %s: boot scrub repaired %d findings (%d orphans removed, %d segments re-executed)",
		dir, len(rep.Damage), len(res.RemovedOrphans), len(res.Repaired))
	return true
}

// acquireLease claims dir's ownership lease (fleet mode only; single-process
// oclmon has no peers to fence against) and starts the one heartbeat
// goroutine that renews every held lease. force steals a live lease — the
// takeover path uses it because the front end has already reaped the old
// holder's process, so a live-looking lease just means the corpse never got
// to say goodbye.
func (s *server) acquireLease(dir string, force bool) error {
	if s.cfg.workerName == "" {
		return nil
	}
	l, err := obs.AcquireLease(dir, s.cfg.workerName, obs.LeaseOptions{TTL: s.cfg.leaseTTL, Steal: force})
	if err != nil {
		return fmt.Errorf("lease on %s: %w", dir, err)
	}
	s.leaseMu.Lock()
	s.leases = append(s.leases, l)
	s.leaseMu.Unlock()
	s.heartbeat.Do(func() {
		go func() {
			tick := time.NewTicker(s.cfg.leaseTTL / 3)
			defer tick.Stop()
			for {
				select {
				case <-s.heartbeatDone:
					return
				case <-tick.C:
				}
				s.leaseMu.Lock()
				held := append([]*obs.Lease(nil), s.leases...)
				s.leaseMu.Unlock()
				for _, l := range held {
					if err := l.Renew(); err != nil {
						// Crash-only: another worker owns our bytes now, so
						// any further append would fork the durable history.
						log.Fatalf("oclmon: lease lost on %s: %v", l.Dir(), err)
					}
				}
			}
		}()
	})
	return nil
}

// stopLeaseHeartbeat halts lease renewal. Test teardown only: a real worker
// holds its leases until the process dies (crash-only), but an in-process
// test server outlived by its heartbeat would fatally trip over the test's
// deleted temp dirs.
func (s *server) stopLeaseHeartbeat() {
	s.heartbeatOff.Do(func() { close(s.heartbeatDone) })
}

// handleTakeover is the fleet handoff endpoint: the front end POSTs a dead
// peer's spill dir; this worker steals the lease, replay-recovers every run
// under it, and answers with the recovered ids so routing follows the data.
func (s *server) handleTakeover(w http.ResponseWriter, req *http.Request) {
	if s.cfg.workerName == "" {
		http.Error(w, "not a fleet worker", http.StatusNotFound)
		return
	}
	var in struct {
		Dir   string `json:"dir"`
		Force bool   `json:"force"`
	}
	if err := json.NewDecoder(req.Body).Decode(&in); err != nil || in.Dir == "" {
		http.Error(w, "bad takeover request", http.StatusBadRequest)
		return
	}
	if err := s.acquireLease(in.Dir, in.Force); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	ids, err := s.recoverDir(in.Dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	log.Printf("oclmon: adopted spill dir %s (%d runs)", in.Dir, len(ids))
	if ids == nil {
		ids = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]string{"runs": ids})
}

// handler builds the HTTP surface.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		// Liveness: the process serves while runs hang, fail, or shed —
		// that is the whole point of supervision.
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		if s.sup.Saturated() {
			http.Error(w, "saturated: run slots and wait queue full", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeMetrics(w)
	})
	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, req *http.Request) {
		s.writeIndex(w)
	})
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, req *http.Request) {
		s.writeIndex(w)
	})
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("POST /takeover", s.handleTakeover)
	mux.HandleFunc("GET /runs/{id}/timeline.json", s.withRun(func(w http.ResponseWriter, req *http.Request, r *run) {
		tl, _, err := r.sink.record()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteTimeline(w, tl); err != nil {
			log.Printf("timeline %s: %v", r.id, err)
		}
	}))
	mux.HandleFunc("GET /runs/{id}/attr.json", s.withRun(func(w http.ResponseWriter, req *http.Request, r *run) {
		tl, _, err := r.sink.record()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := analyze.WriteJSON(w, analyze.Attribute(tl)); err != nil {
			log.Printf("attr %s: %v", r.id, err)
		}
	}))
	mux.HandleFunc("GET /runs/{id}/events", s.withRun(s.serveEvents))
	mux.HandleFunc("GET /runs/{id}/query", s.withRun(s.handleQuery))
	mux.HandleFunc("GET /runs/{id}/at-cycle", s.withRun(s.handleAtCycle))
	mux.HandleFunc("GET /runs/{id}/diff/{other}", s.withRun(s.handleDiff))
	mux.HandleFunc("GET /baselines", s.handleBaselines)
	mux.HandleFunc("POST /baselines/{workload}", s.handleBaselinePin)
	return mux
}

// handleDiff answers GET /runs/{a}/diff/{b} with the differential report of
// run b against baseline run a (DESIGN.md §15): per-(unit, op, resource)
// stall deltas with verdicts, the critical-path shift, and — both sinks being
// sampled on the same process — the metrics-series deltas. Live runs are
// allowed; the comparison then reflects each run's telemetry high-water mark.
// ?rel= and ?abs= override the default verdict thresholds.
func (s *server) handleDiff(w http.ResponseWriter, req *http.Request, a *run) {
	other := req.PathValue("other")
	b := s.get(other)
	if b == nil {
		http.Error(w, "unknown run "+other, http.StatusNotFound)
		return
	}
	th := diff.DefaultThresholds()
	if v := req.URL.Query().Get("rel"); v != "" {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 {
			http.Error(w, "bad rel", http.StatusBadRequest)
			return
		}
		th.RelPct = p
	}
	if v := req.URL.Query().Get("abs"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil || p < 0 {
			http.Error(w, "bad abs", http.StatusBadRequest)
			return
		}
		th.AbsCycles = p
	}
	rep, err := compareRuns(a, b, th)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := diff.WriteReport(w, rep); err != nil {
		log.Printf("diff %s/%s: %v", a.id, b.id, err)
	}
}

// baseline returns the pinned baseline run id for a workload ("" when none).
func (s *server) baseline(workload string) string {
	s.baseMu.Lock()
	defer s.baseMu.Unlock()
	return s.baselines[workload]
}

// runVerdict is the run's cached diff verdict against its workload's pinned
// baseline. Empty when no baseline is pinned, the run is the baseline itself,
// or either side has not completed — a mid-flight comparison would flap.
func (s *server) runVerdict(r *run) diff.Verdict {
	baseID := s.baseline(r.workload)
	if baseID == "" || baseID == r.id {
		return ""
	}
	base := s.get(baseID)
	if base == nil {
		return ""
	}
	if st, _ := r.status(); st != supervise.StateCompleted {
		return ""
	}
	if st, _ := base.status(); st != supervise.StateCompleted {
		return ""
	}
	r.diffMu.Lock()
	defer r.diffMu.Unlock()
	if r.diffBase != baseID {
		rep, err := compareRuns(base, r, diff.DefaultThresholds())
		if err != nil {
			log.Printf("diff %s/%s: %v", baseID, r.id, err)
			return ""
		}
		r.diffBase, r.diffVerdict = baseID, rep.Verdict
	}
	return r.diffVerdict
}

// compareRuns is the differential report of run b against baseline run a.
func compareRuns(a, b *run, th diff.Thresholds) (*diff.Report, error) {
	ta, sa, err := a.sink.record()
	if err != nil {
		return nil, err
	}
	tb, sb, err := b.sink.record()
	if err != nil {
		return nil, err
	}
	return diff.Compare(analyze.Attribute(ta), analyze.Attribute(tb), sa, sb, th), nil
}

// handleBaselinePin pins a completed run as its workload's comparison
// baseline: POST /baselines/{workload}?run=ID. Subsequent scrapes of /runs
// and /metrics report every other completed run of that workload as
// improved/regressed/neutral against it.
func (s *server) handleBaselinePin(w http.ResponseWriter, req *http.Request) {
	workload := req.PathValue("workload")
	id := req.URL.Query().Get("run")
	if id == "" {
		http.Error(w, "missing run parameter", http.StatusBadRequest)
		return
	}
	r := s.get(id)
	if r == nil {
		http.Error(w, "unknown run "+id, http.StatusNotFound)
		return
	}
	if r.workload != workload {
		http.Error(w, fmt.Sprintf("run %s belongs to workload %q, not %q", id, r.workload, workload), http.StatusBadRequest)
		return
	}
	if st, _ := r.status(); st != supervise.StateCompleted {
		http.Error(w, fmt.Sprintf("run %s is %s; only completed runs can be pinned", id, st), http.StatusConflict)
		return
	}
	s.baseMu.Lock()
	s.baselines[workload] = id
	s.baseMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"workload\":%q,\"run\":%q}\n", workload, id)
}

// handleBaselines lists the pinned baselines as a workload -> run id map.
func (s *server) handleBaselines(w http.ResponseWriter, req *http.Request) {
	s.baseMu.Lock()
	out := make(map[string]string, len(s.baselines))
	for k, v := range s.baselines {
		out[k] = v
	}
	s.baseMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Printf("baselines: %v", err)
	}
}

// handleQuery answers GET /runs/{id}/query?q=<query> from the run's spill
// directory via the segment index (DESIGN.md §14) — only segments whose
// container index might hold matches are decoded, so a narrow query over a
// long run decodes a few segments, not the whole spill. Requires the run to be
// spilling; the live in-memory timeline is served by timeline.json instead.
func (s *server) handleQuery(w http.ResponseWriter, req *http.Request, r *run) {
	if r.spill == "" {
		http.Error(w, "run has no spill directory", http.StatusNotFound)
		return
	}
	q, err := query.ParseQuery(req.URL.Query().Get("q"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := query.Run(r.spill, q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		log.Printf("query %s: %v", r.id, err)
	}
}

// handleAtCycle answers GET /runs/{id}/at-cycle?n=N with the machine state at
// cycle N, obtained by deterministic re-execution of the run's spec. When
// the spill holds checkpoints, re-execution starts from the nearest one at or
// before N (hash-verified against the live run's recorded state — a mismatch
// is a 409, the re-execution diverged and the dump would be a lie); otherwise
// it replays from cycle 0. The hosted run itself is never touched.
func (s *server) handleAtCycle(w http.ResponseWriter, req *http.Request, r *run) {
	if s.cfg.startHook != nil {
		http.Error(w, "at-cycle unavailable: runs are hook-injected", http.StatusNotImplemented)
		return
	}
	target, err := strconv.ParseInt(req.URL.Query().Get("n"), 10, 64)
	if err != nil || target < 0 {
		http.Error(w, "bad n", http.StatusBadRequest)
		return
	}
	if r.spec == nil {
		http.Error(w, "no recorded run spec for this run", http.StatusNotFound)
		return
	}
	var want *obs.Checkpoint
	if r.spill != "" {
		if cks, err := query.Checkpoints(r.spill); err == nil {
			for i := range cks {
				if cks[i].Cycle > 0 && cks[i].Cycle <= target && (want == nil || cks[i].Cycle > want.Cycle) {
					want = &cks[i]
				}
			}
		}
	}
	cycles := []int64{target}
	if want != nil {
		cycles = append(cycles, want.Cycle)
	}
	var state *sim.MachineState
	var diverged error
	err = r.spec.Inspect(cycles, func(m *sim.Machine, c int64) error {
		if want != nil && c == want.Cycle && (m.DesignHash() != want.DesignHash || m.StateHash() != want.StateHash) {
			diverged = fmt.Errorf("divergent re-execution at checkpoint cycle %d (recorded state %016x, rebuilt %016x)",
				want.Cycle, want.StateHash, m.StateHash())
			return diverged
		}
		if c == target {
			state = m.StateDump()
		}
		return nil
	})
	switch {
	case diverged != nil:
		http.Error(w, diverged.Error(), http.StatusConflict)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	case state == nil:
		http.Error(w, fmt.Sprintf("re-execution never reached cycle %d", target), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(state); err != nil {
		log.Printf("at-cycle %s: %v", r.id, err)
	}
}

// handleSubmit is the admission path: POST /runs?n=..&cycles=..&wall=..
// answers 202 with the run id, 429 when slots+queue are full or the caller's
// tenant is over its weighted share (retry after the jittered Retry-After),
// 503 when the workload is quarantined by the circuit breaker. The tenant
// comes from the X-Tenant header (or ?tenant=), defaulting to "default".
func (s *server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	n := s.cfg.n
	var lim supervise.Limits
	q := req.URL.Query()
	tenant := req.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = q.Get("tenant")
	}
	if v := q.Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = p
	}
	if v := q.Get("cycles"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil || p < 1 {
			http.Error(w, "bad cycles", http.StatusBadRequest)
			return
		}
		lim.CycleBudget = p
	}
	if v := q.Get("wall"); v != "" {
		p, err := time.ParseDuration(v)
		if err != nil || p <= 0 {
			http.Error(w, "bad wall", http.StatusBadRequest)
			return
		}
		lim.WallClock = p
	}
	r, err := s.admit(n, tenant, lim)
	switch {
	case errors.Is(err, supervise.ErrSaturated), errors.Is(err, supervise.ErrTenantSaturated):
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, supervise.ErrQuarantined):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case obs.IsDiskFull(err):
		// ENOSPC is backpressure, not a crash: the run was refused before any
		// state changed, so the client retries once the GC (or an operator)
		// frees space.
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "spill disk full: "+err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"id\":%q}\n", r.id)
}

// withRun resolves the {id} path value against the registry.
func (s *server) withRun(h func(http.ResponseWriter, *http.Request, *run)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		if r := s.get(id); r != nil {
			h(w, req, r)
			return
		}
		http.Error(w, "unknown run "+id, http.StatusNotFound)
	}
}

func (s *server) writeIndex(w http.ResponseWriter) {
	type entry struct {
		ID        string `json:"id"`
		Workload  string `json:"workload"`
		Tenant    string `json:"tenant,omitempty"`
		State     string `json:"state"`
		Done      bool   `json:"done"`
		Recovered bool   `json:"recovered,omitempty"`
		// Quarantined marks a spill the boot scrubber could not repair; the
		// run is served as this degraded verdict only, never as telemetry.
		Quarantined bool   `json:"quarantined,omitempty"`
		Cycle       int64  `json:"cycle"`
		Events      int    `json:"events"`
		Verdict     string `json:"verdict,omitempty"`
		Error       string `json:"error,omitempty"`
	}
	out := []entry{}
	for _, r := range s.allRuns() {
		st := r.sink.stats()
		state, outcome := r.status()
		e := entry{
			ID: r.id, Workload: r.workload, Tenant: r.tenant, State: string(state), Recovered: r.recovered,
			Done:        state == supervise.StateCompleted || state == supervise.StateFailed || state == supervise.StateQuarantined,
			Quarantined: r.quarantinedSpill,
			Cycle:       st.cycle, Events: st.events,
			Verdict: string(s.runVerdict(r)),
		}
		if outcome != nil && outcome.Err != nil {
			e.Error = outcome.Err.Error()
		} else if st.err != nil {
			e.Error = st.err.Error()
		}
		out = append(out, e)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Printf("index: %v", err)
	}
}

// writeMetrics emits the Prometheus text exposition: per-run telemetry from
// the live sinks plus the supervisor's admission/outcome counters.
func (s *server) writeMetrics(w http.ResponseWriter) {
	runs := s.allRuns()
	// One reading per run, so each run's series agree with each other.
	stats := make([]liveStats, len(runs))
	for i, r := range runs {
		stats[i] = r.sink.stats()
	}
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP oclmon_runs Number of hosted simulations.\n# TYPE oclmon_runs gauge\n")
	p("oclmon_runs %d\n", len(runs))

	st := s.sup.Stats()
	p("# HELP oclmon_queue_depth Submissions waiting for a run slot.\n# TYPE oclmon_queue_depth gauge\n")
	p("oclmon_queue_depth %d\n", st.Queued)
	p("# HELP oclmon_runs_running Runs currently executing.\n# TYPE oclmon_runs_running gauge\n")
	p("oclmon_runs_running %d\n", st.Running)
	p("# HELP oclmon_runs_completed_total Supervised runs that completed.\n# TYPE oclmon_runs_completed_total counter\n")
	p("oclmon_runs_completed_total %d\n", st.Completed)
	p("# HELP oclmon_runs_failed_total Supervised runs that failed (diagnosed hang, budget, watchdog, panic, sink).\n# TYPE oclmon_runs_failed_total counter\n")
	p("oclmon_runs_failed_total %d\n", st.Failed)
	p("# HELP oclmon_runs_quarantined_total Submissions refused by the circuit breaker.\n# TYPE oclmon_runs_quarantined_total counter\n")
	p("oclmon_runs_quarantined_total %d\n", st.Quarantined)
	p("# HELP oclmon_submissions_shed_total Submissions shed by admission control (429).\n# TYPE oclmon_submissions_shed_total counter\n")
	p("oclmon_submissions_shed_total %d\n", st.Shed)
	p("# HELP oclmon_run_panics_total Run goroutine panics converted to failed runs.\n# TYPE oclmon_run_panics_total counter\n")
	p("oclmon_run_panics_total %d\n", st.Panics)
	p("# HELP oclmon_submissions_tenant_shed_total Submissions refused by the per-tenant quota (429).\n# TYPE oclmon_submissions_tenant_shed_total counter\n")
	p("oclmon_submissions_tenant_shed_total %d\n", st.TenantShed)

	nq := 0
	for _, r := range runs {
		if r.quarantinedSpill {
			nq++
		}
	}
	p("# HELP oclmon_runs_quarantined Hosted runs whose spill failed the boot scrub and is quarantined on disk.\n# TYPE oclmon_runs_quarantined gauge\n")
	p("oclmon_runs_quarantined %d\n", nq)
	if s.cfg.spillDir != "" {
		var total int64
		if ents, err := os.ReadDir(s.cfg.spillDir); err == nil {
			for _, ent := range ents {
				if ent.IsDir() {
					total += scrub.DirBytes(filepath.Join(s.cfg.spillDir, ent.Name()))
				}
			}
		}
		p("# HELP oclmon_spill_bytes Bytes of durable spill under the spill root.\n# TYPE oclmon_spill_bytes gauge\n")
		p("oclmon_spill_bytes %d\n", total)
		if s.cfg.spillBudget > 0 {
			p("# HELP oclmon_spill_budget_bytes Configured disk budget for the spill root.\n# TYPE oclmon_spill_budget_bytes gauge\n")
			p("oclmon_spill_budget_bytes %d\n", s.cfg.spillBudget)
		}
	}

	if s.cfg.quota != nil {
		p("# HELP oclmon_tenant_held Admissions currently held per tenant.\n# TYPE oclmon_tenant_held gauge\n")
		for _, h := range s.cfg.quota.Snapshot() {
			p("oclmon_tenant_held{tenant=%q} %d\n", h.Tenant, h.Held)
		}
		p("# HELP oclmon_tenant_weight Configured fair-share weight per tenant.\n# TYPE oclmon_tenant_weight gauge\n")
		for _, h := range s.cfg.quota.Snapshot() {
			p("oclmon_tenant_weight{tenant=%q} %d\n", h.Tenant, h.Weight)
		}
	}

	p("# HELP oclmon_run_done Whether the run has finished (1) or is in flight (0).\n# TYPE oclmon_run_done gauge\n")
	for _, r := range runs {
		state, _ := r.status()
		done := state == supervise.StateCompleted || state == supervise.StateFailed || state == supervise.StateQuarantined
		p("oclmon_run_done{run=%q} %d\n", r.id, b2i(done))
	}
	p("# HELP oclmon_run_regressed Whether the run regressed against its workload's pinned baseline (1 regressed, 0 improved/neutral; absent without a verdict).\n# TYPE oclmon_run_regressed gauge\n")
	for _, r := range runs {
		if v := s.runVerdict(r); v != "" {
			p("oclmon_run_regressed{run=%q} %d\n", r.id, b2i(v == diff.Regressed))
		}
	}
	p("# HELP oclmon_cycles Last simulated cycle observed for the run.\n# TYPE oclmon_cycles gauge\n")
	for i, r := range runs {
		p("oclmon_cycles{run=%q} %d\n", r.id, stats[i].cycle)
	}
	p("# HELP oclmon_events_total Timeline events recorded.\n# TYPE oclmon_events_total counter\n")
	for i, r := range runs {
		p("oclmon_events_total{run=%q} %d\n", r.id, stats[i].events)
	}
	p("# HELP oclmon_samples_total Metrics samples recorded.\n# TYPE oclmon_samples_total counter\n")
	for i, r := range runs {
		p("oclmon_samples_total{run=%q} %d\n", r.id, stats[i].samples)
	}
	p("# HELP oclmon_ff_jumps_total Fast-forward jumps taken.\n# TYPE oclmon_ff_jumps_total counter\n")
	for i, r := range runs {
		p("oclmon_ff_jumps_total{run=%q} %d\n", r.id, stats[i].ffJumps)
	}
	p("# HELP oclmon_events_dropped_total Events refused after the timeline was finalized.\n# TYPE oclmon_events_dropped_total counter\n")
	for i, r := range runs {
		p("oclmon_events_dropped_total{run=%q} %d\n", r.id, stats[i].dropped)
	}
	// Kept, at 0, for scrapers that alert on it.
	p("# HELP oclmon_sse_dropped_total SSE frames dropped to slow subscribers (always 0: every subscriber receives every frame).\n# TYPE oclmon_sse_dropped_total counter\n")
	for _, r := range runs {
		p("oclmon_sse_dropped_total{run=%q} 0\n", r.id)
	}
	p("# HELP oclmon_stall_cycles_total Cycles a unit spent blocked, by channel endpoint.\n# TYPE oclmon_stall_cycles_total counter\n")
	for i, r := range runs {
		st := stats[i]
		keys := make([]stallKey, 0, len(st.stall))
		for k := range st.stall {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].resource != keys[j].resource {
				return keys[i].resource < keys[j].resource
			}
			return keys[i].op < keys[j].op
		})
		for _, k := range keys {
			p("oclmon_stall_cycles_total{run=%q,chan=%q,dir=%q} %d\n", r.id, k.resource, k.op, st.stall[k])
		}
	}
	p("# HELP oclmon_channel_depth Channel occupancy at the latest metrics sample.\n# TYPE oclmon_channel_depth gauge\n")
	for i, r := range runs {
		st := stats[i]
		names := make([]string, 0, len(st.depth))
		for n := range st.depth {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			p("oclmon_channel_depth{run=%q,chan=%q} %d\n", r.id, n, st.depth[n])
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// serveEvents is the SSE live tail. Each frame carries an `id:` line — the
// event's index in the run's deterministic append-order stream — so a client
// dropped mid-tail (or cut off by a worker failover) reconnects with
// Last-Event-ID (or ?after=N) and resumes exactly where it left off, no
// duplicate or missing frames. The tail is one cursor loop over the sink's
// stream: it takes every event past the cursor, encodes the batch outside
// the sink lock and flushes it once, and waits for the stream to grow when
// it has caught up. A resumed tail's backlog and the live feed are the same
// reads, and nothing is ever shed: a slow client only lags behind the run.
// When the run is finalized and the cursor is at the stream end, a closing
// `event: finalize` frame carries the run's endCycle and frames, the full
// stream length (ff-jumps included). On a spilled run that frame follows
// the spill's manifest commit. Sequence numbers survive failover because
// the surviving worker's replay reproduces the identical stream. An idle
// live stream emits a `: keepalive` comment frame every cfg.sseKeepalive so
// intermediaries do not reap the connection while a fast-forwarded run is
// between events; a client that disconnects ends the tail at once.
func (s *server) serveEvents(w http.ResponseWriter, req *http.Request, r *run) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	after := int64(-1)
	if v := req.Header.Get("Last-Event-ID"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad Last-Event-ID", http.StatusBadRequest)
			return
		}
		after = p
	} else if v := req.URL.Query().Get("after"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad after", http.StatusBadRequest)
			return
		}
		after = p
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	bw := bufio.NewWriter(w)
	flush := func() bool {
		if bw.Flush() != nil {
			return false
		}
		fl.Flush()
		return true
	}
	ka := time.NewTicker(s.cfg.sseKeepalive)
	defer ka.Stop()
	defer r.sink.tail()()
	// The cursor is the next id to send; no id follows MaxInt64.
	for cur := min(max(after, -1), math.MaxInt64-1) + 1; ; {
		evs, done, wake, err := r.sink.next(cur)
		if err != nil {
			// The stream is already open: it ends without a finalize frame.
			log.Printf("events %s: %v", r.id, err)
			return
		}
		if len(evs) > 0 {
			for i := range evs {
				frame := append(bw.AvailableBuffer(), "id: "...)
				frame = strconv.AppendInt(frame, cur, 10)
				frame = append(frame, "\ndata: "...)
				frame = obs.AppendEventJSON(frame, &evs[i])
				bw.Write(append(frame, "\n\n"...)) // a failed write surfaces at flush
				cur++
			}
			if !flush() {
				return
			}
			ka.Reset(s.cfg.sseKeepalive)
			continue
		}
		if done {
			st := r.sink.stats()
			fmt.Fprintf(bw, "event: finalize\ndata: {\"endCycle\":%d,\"frames\":%d}\n\n", st.cycle, st.events+st.ffJumps)
			flush()
			return
		}
		select {
		case <-wake:
		case <-ka.C:
			bw.WriteString(": keepalive\n\n")
			if !flush() {
				return
			}
		case <-req.Context().Done():
			return
		}
	}
}
