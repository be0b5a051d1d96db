package supervise

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"oclfpga/internal/sim"
)

// State classifies where a supervised run is in its lifecycle. Every run
// reaches exactly one of the three terminal states — completed, failed, or
// quarantined — which is the supervision contract: the process never dies
// with a run in limbo.
type State string

const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateCompleted   State = "completed"
	StateFailed      State = "failed"
	StateQuarantined State = "quarantined"
)

// Limits bounds one run. Zero fields take the supervisor's defaults.
type Limits struct {
	// CycleBudget is the total simulated cycles the run may consume
	// (default 50M). Exhausting it fails the run with a ReasonBudget
	// diagnostic — the guard against runaway-but-live workloads that
	// MaxCycles alone would let monopolize a slot for minutes.
	CycleBudget int64
	// WallClock bounds real execution time (default 2m). The watchdog is
	// checked between bounded RunFor slices, so the machine is always left
	// consistent when it trips.
	WallClock time.Duration
	// Slice is the initial RunFor budget per iteration of the drive loop
	// (default 250k cycles) — the granularity at which the watchdog can
	// fire. Uneventful iterations double it, up to 64x, so long healthy
	// runs are not dominated by slice-expiry bookkeeping. It is only the
	// watchdog's cadence: RunFor is slice-invariant, so the slices never
	// shape the run's record.
	Slice int64
}

// defaultLimits are the package defaults New fills into Config.Defaults.
var defaultLimits = Limits{CycleBudget: 50_000_000, WallClock: 2 * time.Minute, Slice: 250_000}

func (l *Limits) fill(d Limits) {
	if l.CycleBudget <= 0 {
		l.CycleBudget = d.CycleBudget
	}
	if l.WallClock <= 0 {
		l.WallClock = d.WallClock
	}
	if l.Slice <= 0 {
		l.Slice = d.Slice
	}
}

// Outcome is a run's terminal record.
type Outcome struct {
	State State
	// Err is the terminal error for failed/quarantined runs (nil when
	// completed).
	Err error
	// Diagnostic carries the DeadlockReport-shaped diagnosis for failures
	// that have one: diagnosed hangs, budget/watchdog expiries, panics.
	Diagnostic *sim.DeadlockReport
	// PanicValue is the recovered panic payload, when the run crashed.
	PanicValue any
	// Cycles is the machine's final cycle (0 if the run never started).
	Cycles int64
	// Wall is the run's real execution time.
	Wall time.Duration
	// SinkRetries counts FinalizeRetry attempts spent on transient sink
	// failures (successful or not).
	SinkRetries int
}

// Spec describes one run to supervise.
type Spec struct {
	// ID names the run (diagnostics only).
	ID string
	// Workload keys the circuit breaker: runs sharing a Workload share a
	// failure history, and repeated failures quarantine the whole class.
	Workload string
	// Tenant names the submitting party for Config.Quota accounting
	// ("" is a tenant like any other). The supervisor itself attaches no
	// meaning to the string.
	Tenant string
	// Limits overrides the supervisor defaults where non-zero.
	Limits Limits
	// Start builds and launches the machine. It executes inside the
	// supervised worker, so compile/launch panics are isolated like run
	// panics.
	Start func() (*sim.Machine, error)
	// Done receives the terminal outcome (optional). Called exactly once
	// per admitted run, from the worker goroutine; m is nil when Start
	// failed. Quarantined submissions get Done too, with a nil machine.
	Done func(m *sim.Machine, out Outcome)
	// FinalizeRetry, when set, is invoked on the supervisor's backoff
	// schedule after Machine.ObserveErr reports a sink failure at finalize —
	// the hook a durable spill uses to re-attempt its commit (for example
	// obs.(*SegmentSink).RetryFinalize). A nil return clears the failure.
	FinalizeRetry func() error
}

// TenantQuota is the per-tenant fairness hook consulted on admission.
// Acquire runs after the circuit-breaker check and before the run enters
// the slot/queue machinery; a non-nil error refuses the submission with
// ErrTenantSaturated (mapped to 429 by oclmon, like plain saturation).
// Release is called exactly once per successful Acquire — when the run
// reaches a terminal state, or immediately if the queue sheds it.
// internal/fleet's WeightedQuota is the canonical implementation.
type TenantQuota interface {
	Acquire(tenant string) error
	Release(tenant string)
}

// BreakerConfig tunes the per-workload circuit breaker.
type BreakerConfig struct {
	// Threshold opens the breaker after this many consecutive failures
	// (0 disables the breaker).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting one
	// half-open probe run (default 30s).
	Cooldown time.Duration
}

// Config configures a Supervisor.
type Config struct {
	// Slots is the number of concurrently running sims (default 2).
	Slots int
	// Queue bounds the wait queue behind the slots (default 8). A full
	// queue sheds new submissions with ErrSaturated.
	Queue int
	// Defaults fills unset per-run Limits.
	Defaults Limits
	Breaker  BreakerConfig
	// Quota, when set, gates admission per Spec.Tenant (weighted fairness
	// lives in the implementation; see TenantQuota).
	Quota TenantQuota
	// Retry schedules FinalizeRetry attempts; Base/Max are nanoseconds
	// (default 50ms doubling to 2s, 4 attempts).
	Retry Backoff
	// RetryAttempts caps FinalizeRetry attempts (default 4).
	RetryAttempts int
	// Now and Sleep are injectable for deterministic tests (defaults:
	// time.Now, time.Sleep).
	Now   func() time.Time
	Sleep func(time.Duration)
}

// Admission errors. Both mean "not now", with different HTTP mappings in
// oclmon: saturation is 429 (retry later), quarantine 503 (the workload
// itself is suspect until the breaker cools down).
var (
	ErrSaturated       = errors.New("supervise: run slots and wait queue full")
	ErrTenantSaturated = errors.New("supervise: tenant over quota")
	ErrQuarantined     = errors.New("supervise: workload quarantined by circuit breaker")
	ErrClosed          = errors.New("supervise: supervisor closed")
)

// Stats is a snapshot of the supervisor's counters.
type Stats struct {
	Queued      int   // submissions waiting for a slot
	Running     int   // runs currently executing
	Completed   int64 // terminal counts since start
	Failed      int64
	Quarantined int64
	Shed        int64 // submissions refused with ErrSaturated
	TenantShed  int64 // submissions refused with ErrTenantSaturated
	Panics      int64 // run goroutine panics converted to failures
}

type breaker struct {
	fails     int
	openUntil time.Time
	probing   bool
}

// Supervisor executes submitted runs on a bounded worker pool with layered
// guards. See the package comment for the failure model.
type Supervisor struct {
	cfg Config
	ch  chan *Spec

	mu       sync.Mutex
	breakers map[string]*breaker
	stats    Stats
	closed   bool

	workers sync.WaitGroup
}

// New starts a supervisor with cfg's worker pool.
func New(cfg Config) *Supervisor {
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 8
	}
	cfg.Defaults.fill(defaultLimits)
	if cfg.Retry.Base <= 0 {
		cfg.Retry.Base = (50 * time.Millisecond).Nanoseconds()
	}
	if cfg.Retry.Max <= 0 {
		cfg.Retry.Max = (2 * time.Second).Nanoseconds()
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 4
	}
	if cfg.Breaker.Cooldown <= 0 {
		cfg.Breaker.Cooldown = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	s := &Supervisor{cfg: cfg, ch: make(chan *Spec, cfg.Queue), breakers: map[string]*breaker{}}
	s.workers.Add(cfg.Slots)
	for i := 0; i < cfg.Slots; i++ {
		go s.worker()
	}
	return s
}

// Submit admits a run or refuses it. ErrSaturated means slots and queue are
// full (the submission is shed and only counted); ErrTenantSaturated means
// Config.Quota refused the tenant; ErrQuarantined means the workload's
// breaker is open (the run is recorded: Done fires with StateQuarantined).
// Admitted runs execute asynchronously; their terminal state arrives via
// spec.Done.
func (s *Supervisor) Submit(spec Spec) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if open := s.breakerOpen(spec.Workload); open {
		s.stats.Quarantined++
		s.mu.Unlock()
		err := fmt.Errorf("%w (workload %q)", ErrQuarantined, spec.Workload)
		if spec.Done != nil {
			spec.Done(nil, Outcome{State: StateQuarantined, Err: err})
		}
		return err
	}
	if s.cfg.Quota != nil {
		if err := s.cfg.Quota.Acquire(spec.Tenant); err != nil {
			s.stats.TenantShed++
			s.mu.Unlock()
			return fmt.Errorf("%w (tenant %q): %v", ErrTenantSaturated, spec.Tenant, err)
		}
	}
	select {
	case s.ch <- &spec:
		s.mu.Unlock()
		return nil
	default:
		s.stats.Shed++
		s.mu.Unlock()
		if s.cfg.Quota != nil {
			s.cfg.Quota.Release(spec.Tenant)
		}
		return ErrSaturated
	}
}

// breakerOpen reports whether the workload is quarantined right now, letting
// exactly one probe run through per cooldown expiry (half-open). Caller
// holds s.mu.
func (s *Supervisor) breakerOpen(workload string) bool {
	if s.cfg.Breaker.Threshold <= 0 {
		return false
	}
	b := s.breakers[workload]
	if b == nil || b.fails < s.cfg.Breaker.Threshold {
		return false
	}
	if s.cfg.Now().Before(b.openUntil) {
		return true
	}
	if b.probing {
		return true // a probe is already in flight; stay closed to the rest
	}
	b.probing = true
	return false
}

func (s *Supervisor) recordBreaker(workload string, ok bool) {
	if s.cfg.Breaker.Threshold <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[workload]
	if b == nil {
		b = &breaker{}
		s.breakers[workload] = b
	}
	b.probing = false
	if ok {
		b.fails = 0
		return
	}
	b.fails++
	if b.fails >= s.cfg.Breaker.Threshold {
		b.openUntil = s.cfg.Now().Add(s.cfg.Breaker.Cooldown)
	}
}

// Stats snapshots the counters.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Queued = len(s.ch)
	return st
}

// Saturated reports whether a Submit right now would shed — the /readyz
// signal.
func (s *Supervisor) Saturated() bool { return len(s.ch) == cap(s.ch) }

// Close stops admission, drains queued runs, and waits for the workers to
// finish. Safe to call once.
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.workers.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.ch)
	s.workers.Wait()
}

func (s *Supervisor) worker() {
	defer s.workers.Done()
	for spec := range s.ch {
		s.mu.Lock()
		s.stats.Running++
		s.mu.Unlock()
		s.execute(spec)
		if s.cfg.Quota != nil {
			// Every spec on the channel holds a quota acquisition (Submit
			// released the shed ones before they got here).
			s.cfg.Quota.Release(spec.Tenant)
		}
	}
}

// execute runs one spec to a terminal state, counts it in Stats, and hands
// it to Done. Panics anywhere in Start or the drive loop are converted into
// StateFailed with a best-effort ReasonPanic diagnostic, and a panicking Done
// is swallowed — a crashing run must never take the supervisor down.
func (s *Supervisor) execute(spec *Spec) {
	out := Outcome{State: StateFailed}
	started := s.cfg.Now()
	var m *sim.Machine
	func() {
		defer func() {
			if p := recover(); p != nil {
				out.PanicValue = p
				out.State = StateFailed
				out.Err = fmt.Errorf("supervise: run %s panicked: %v", spec.ID, p)
				if m != nil {
					out.Diagnostic = safeReport(m, sim.ReasonPanic)
				}
			}
		}()
		var err error
		m, err = spec.Start()
		if err != nil {
			out.Err = fmt.Errorf("supervise: run %s start: %w", spec.ID, err)
			return
		}
		s.drive(spec, m, &out)
	}()
	out.Wall = s.cfg.Now().Sub(started)
	if m != nil {
		out.Cycles = safeCycle(m)
	}
	s.recordBreaker(spec.Workload, out.State == StateCompleted)
	// Count the outcome before Done fires, so a caller that reads Stats
	// once its outcome arrived sees the run counted.
	s.mu.Lock()
	s.stats.Running--
	if out.State == StateCompleted {
		s.stats.Completed++
	} else {
		s.stats.Failed++
	}
	if out.PanicValue != nil {
		s.stats.Panics++
	}
	s.mu.Unlock()
	if spec.Done != nil {
		func() {
			defer func() { recover() }() // a crashing callback is the caller's bug, not our outage
			spec.Done(m, out)
		}()
	}
}

// drive advances the machine in bounded slices until it completes, fails
// with a diagnosis, exhausts its cycle budget, or trips the wall-clock
// watchdog — then finalizes observability, retrying transient sink failures
// on the backoff schedule.
func (s *Supervisor) drive(spec *Spec, m *sim.Machine, out *Outcome) {
	lim := spec.Limits
	lim.fill(s.cfg.Defaults)
	deadline := s.cfg.Now().Add(lim.WallClock)
	left := lim.CycleBudget
	// The slice doubles every uneventful iteration (capped at 64x) so a
	// healthy long run pays O(log budget) pauses, not budget/Slice of them,
	// while the first slices stay short enough for a prompt watchdog.
	slice := lim.Slice
	for {
		if slice > lim.Slice*64 {
			slice = lim.Slice * 64
		}
		if slice > left {
			slice = left
		}
		err := m.RunFor(slice)
		if err == nil {
			break // all launched kernels completed
		}
		var de *sim.DeadlockError
		if !errors.As(err, &de) || !de.Timeout() {
			// A diagnosed hang (stall limit, max cycles, circular wait) or a
			// machine-level error: terminal, with whatever diagnosis it carries.
			out.State = StateFailed
			out.Err = err
			if de != nil {
				out.Diagnostic = de.Report
			}
			s.finalizeObs(spec, m, out)
			return
		}
		left -= slice
		slice *= 2
		if left <= 0 {
			out.State = StateFailed
			out.Err = fmt.Errorf("supervise: run %s: cycle budget %d exhausted: %w", spec.ID, lim.CycleBudget, de)
			out.Diagnostic = de.Report
			s.finalizeObs(spec, m, out)
			return
		}
		if !s.cfg.Now().Before(deadline) {
			rep := safeReport(m, sim.ReasonWallClock)
			out.State = StateFailed
			out.Diagnostic = rep
			out.Err = fmt.Errorf("supervise: run %s: wall-clock watchdog (%s) expired: %w",
				spec.ID, lim.WallClock, &sim.DeadlockError{Report: rep})
			s.finalizeObs(spec, m, out)
			return
		}
	}
	out.State = StateCompleted
	s.finalizeObs(spec, m, out)
}

// EffectiveLimits resolves l against the supervisor's defaults — the limits a
// run submitted with l actually executes under. Callers that persist a run's
// provenance (the spill manifest's Meta) record the resolved cycle budget: a
// run that exhausts it ends there, so the budget shapes the recorded stream.
func (s *Supervisor) EffectiveLimits(l Limits) Limits {
	l.fill(s.cfg.Defaults)
	return l
}

// finalizeObs closes the machine's observability record (on every terminal
// path — a failed run's partial timeline is exactly the evidence worth
// keeping) and retries transient sink failures. A completed run whose record
// cannot be committed is downgraded to failed: "completed" promises the
// durable record exists.
func (s *Supervisor) finalizeObs(spec *Spec, m *sim.Machine, out *Outcome) {
	if !m.Observed() {
		return
	}
	func() {
		defer func() { recover() }() // mid-tick machine after a fault: keep the outcome
		m.Observer()                 // forces the recorder's Finalize through to the sink
	}()
	obsErr := m.ObserveErr()
	if obsErr == nil || spec.FinalizeRetry == nil {
		if obsErr != nil && out.State == StateCompleted {
			out.State = StateFailed
			out.Err = fmt.Errorf("supervise: run %s: observe sink: %w", spec.ID, obsErr)
		}
		return
	}
	for _, d := range s.cfg.Retry.Schedule(s.cfg.RetryAttempts) {
		s.cfg.Sleep(time.Duration(d))
		out.SinkRetries++
		if err := spec.FinalizeRetry(); err == nil {
			return // committed; ObserveErr stays sticky but the record is durable
		} else {
			obsErr = err
		}
	}
	if out.State == StateCompleted {
		out.State = StateFailed
		out.Err = fmt.Errorf("supervise: run %s: observe sink failed after %d retries: %w",
			spec.ID, out.SinkRetries, obsErr)
	}
}

// safeReport diagnoses m, tolerating a machine left mid-tick by a panic — if
// the diagnosis itself panics, a minimal report is synthesized instead.
func safeReport(m *sim.Machine, reason sim.Reason) (rep *sim.DeadlockReport) {
	defer func() {
		if recover() != nil {
			rep = &sim.DeadlockReport{Reason: reason, Cycle: safeCycle(m),
				Blame: "diagnosis unavailable: machine state corrupted by panic"}
		}
	}()
	return m.DeadlockReport(reason)
}

func safeCycle(m *sim.Machine) (c int64) {
	defer func() { recover() }()
	return m.Cycle()
}
