// Command oclmon is the live observability service: it hosts supervised
// simulations of a stall-heavy producer/consumer design and serves their
// telemetry over HTTP while the runs are in flight — the board-monitor
// daemon analogue of the paper's host-side profiling flow.
//
//	go run ./cmd/oclmon -addr localhost:8077 -runs 2 -n 8192
//
// Every run executes under internal/supervise: per-run cycle budgets, a
// wall-clock watchdog, panic isolation, a bounded slot+queue admission path,
// and a per-workload circuit breaker. With -spill-dir the event stream is
// also committed to crash-safe container segments, and a completed run's
// records are served from its spill rather than held in memory; on restart
// the server replays completed runs from their spill and deterministically
// re-executes interrupted ones, proving the regenerated stream against
// every sealed segment's manifest fingerprint before resuming it.
//
// Endpoints:
//
//	GET  /healthz                  liveness (always 200 while serving)
//	GET  /readyz                   503 while slots+queue are saturated
//	GET  /metrics                  Prometheus text exposition (cycles, stalls,
//	                               supervisor counters)
//	GET  /runs                     JSON index of hosted runs
//	POST /runs?n=&cycles=&wall=    admit a run (202; 429 saturated or over
//	                               tenant quota, 503 quarantined); tenant from
//	                               X-Tenant or ?tenant=
//	GET  /runs/{id}/timeline.json  the run's event timeline (Perfetto JSON);
//	                               a consistent snapshot while still running
//	GET  /runs/{id}/attr.json      stall attribution & critical path (live)
//	GET  /runs/{id}/events         Server-Sent Events tail of the event stream,
//	                               every frame delivered (a slow client lags,
//	                               never loses one); resumes with Last-Event-ID
//	                               (or ?after=N); idle streams carry
//	                               `: keepalive` comments
//	GET  /runs/{a}/diff/{b}        differential report of run b against
//	                               baseline run a: stall deltas, verdicts,
//	                               critical-path shift (?rel=&abs= thresholds)
//	POST /baselines/{workload}     ?run=ID pins a completed run as the
//	                               workload's baseline; other completed runs
//	                               then carry a verdict in /runs and an
//	                               oclmon_run_regressed gauge in /metrics
//	GET  /baselines                pinned baselines (workload -> run id)
//	GET  /runs/{id}/query?q=       indexed event query over the run's spill
//	                               (track=/name=/kind=/cycles=[a,b] grammar)
//	GET  /runs/{id}/at-cycle?n=    machine state at cycle N by deterministic
//	                               re-execution, rewound from the nearest
//	                               hash-verified spill checkpoint when one
//	                               exists (409 on divergence)
//
// With -workers N the process instead runs as a fleet front end: it spawns N
// crash-isolated worker processes (this same binary in worker mode), places
// submissions on a consistent-hash ring keyed by tenant and workload, proxies
// run traffic, aggregates /runs and /metrics, and on a worker death hands the
// corpse's spill directories to a survivor, which steals the ownership lease
// and replay-recovers the orphaned runs byte-identically, then respawns a
// replacement. The front end adds:
//
//	GET  /readyz                   200 "ready"/"degraded" with live/total
//	                               worker counts; 503 when no worker is live
//	GET  /fleet                    worker inventory and recovery stats
//	POST /fleet/kill?worker=wN     chaos hook: SIGKILL a worker
//
// The server binds before the simulations start and announces
// "oclmon: listening on http://..." on stderr, so scripts can poll the log,
// scrape, and shut the process down with SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oclfpga/internal/fleet"
	"oclfpga/internal/supervise"
)

var (
	flagAddr  = flag.String("addr", "localhost:8077", "listen address (use :0 for an ephemeral port)")
	flagRuns  = flag.Int("runs", 1, "number of simulations to submit at boot")
	flagN     = flag.Int("n", 8192, "items streamed producer -> consumer per run (~400 cycles each)")
	flagEvery = flag.Int64("sample-every", 1000, "metrics sampling interval in cycles")
	flagNoFF  = flag.Bool("no-fastforward", false, "step every cycle (slower; same telemetry bytes)")

	flagSlots   = flag.Int("slots", 2, "concurrent run slots")
	flagQueue   = flag.Int("queue", 8, "wait-queue depth behind the slots")
	flagBudget  = flag.Int64("cycle-budget", 50_000_000, "default per-run cycle budget")
	flagWall    = flag.Duration("wall-clock", 2*time.Minute, "default per-run wall-clock watchdog")
	flagBreaker = flag.Int("breaker-threshold", 3, "consecutive failures before a workload is quarantined (0 disables)")
	flagCool    = flag.Duration("breaker-cooldown", 30*time.Second, "how long a quarantined workload stays open")

	flagSpillDir    = flag.String("spill-dir", "", "root directory for crash-safe segmented spill (enables replay recovery)")
	flagSegLines    = flag.Int("seg-lines", 4096, "spill segment rotation threshold (payload records)")
	flagSegBytes    = flag.Int64("seg-bytes", 1<<20, "spill segment rotation threshold (payload bytes)")
	flagCkpt        = flag.Int64("checkpoint-every", 0, "record a rewind checkpoint every N cycles in the spill (0 disables; speeds up /runs/{id}/at-cycle)")
	flagSpillBudget = flag.Int64("spill-budget", 0, "disk budget in bytes for the spill root (0 = unlimited; quarantined then oldest completed runs are evicted to fit)")

	flagWorkers    = flag.Int("workers", 0, "fleet mode: spawn N crash-isolated worker processes behind this front end")
	flagWorkerName = flag.String("worker-name", "", "fleet worker identity (set by the front end; implies lease-guarded spill)")
	flagLeaseTTL   = flag.Duration("lease-ttl", 10*time.Second, "spill-dir ownership lease TTL in worker mode")
	flagTenants    = flag.String("tenant-weights", "", "per-tenant admission weights, e.g. a=3,b=1 (enables the weighted quota; capacity = slots+queue)")
)

// parseTenantWeights parses "a=3,b=1" into a weight map.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant weight %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad tenant weight %q (want positive integer)", part)
		}
		out[name] = w
	}
	return out, nil
}

func main() {
	flag.Parse()
	if *flagRuns < 0 || *flagN < 1 {
		log.Fatal("oclmon: -runs must be >= 0 and -n positive")
	}
	if *flagWorkers > 0 {
		frontendMain()
		return
	}

	weights, err := parseTenantWeights(*flagTenants)
	if err != nil {
		log.Fatalf("oclmon: -tenant-weights: %v", err)
	}
	var quota *fleet.WeightedQuota
	var supQuota supervise.TenantQuota
	if weights != nil {
		quota = fleet.NewWeightedQuota(*flagSlots+*flagQueue, fleet.QuotaOptions{Weights: weights})
		supQuota = quota
	}
	sup := supervise.New(supervise.Config{
		Slots: *flagSlots,
		Queue: *flagQueue,
		Quota: supQuota,
		Defaults: supervise.Limits{
			CycleBudget: *flagBudget,
			WallClock:   *flagWall,
		},
		Breaker: supervise.BreakerConfig{Threshold: *flagBreaker, Cooldown: *flagCool},
	})
	srv := newServer(serverConfig{
		n:           *flagN,
		sampleEvery: *flagEvery,
		noFF:        *flagNoFF,
		spillDir:    *flagSpillDir,
		segLines:    *flagSegLines,
		segBytes:    *flagSegBytes,
		ckptEvery:   *flagCkpt,
		spillBudget: *flagSpillBudget,
		workerName:  *flagWorkerName,
		leaseTTL:    *flagLeaseTTL,
		quota:       quota,
	}, sup)
	if err := srv.recoverSpills(); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *flagRuns; i++ {
		if _, err := srv.admit(*flagN, "", supervise.Limits{}); err != nil {
			log.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", *flagAddr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "oclmon: listening on http://%s (%d runs)\n", ln.Addr(), len(srv.allRuns()))
	hs := &http.Server{Handler: srv.handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	// In-flight runs are abandoned, not drained: with -spill-dir their
	// durable prefixes are already on disk and the next start recovers them.
}

// frontendMain runs the fleet front end: spawn the workers (this binary in
// worker mode, inheriting the run-shape and supervision flags), serve the
// routing layer, and submit the boot runs through its own admission path so
// they are placed like any client submission.
func frontendMain() {
	self, err := os.Executable()
	if err != nil {
		log.Fatalf("oclmon: cannot locate own binary for worker spawn: %v", err)
	}
	fe := fleet.New(fleet.Config{
		Workers:   *flagWorkers,
		SpillRoot: *flagSpillDir,
		Logf:      log.Printf,
		Spawn: func(name, dir string) *exec.Cmd {
			args := []string{
				"-addr", "localhost:0", "-runs", "0",
				"-worker-name", name,
				"-n", strconv.Itoa(*flagN),
				"-sample-every", strconv.FormatInt(*flagEvery, 10),
				"-slots", strconv.Itoa(*flagSlots),
				"-queue", strconv.Itoa(*flagQueue),
				"-cycle-budget", strconv.FormatInt(*flagBudget, 10),
				"-wall-clock", flagWall.String(),
				"-breaker-threshold", strconv.Itoa(*flagBreaker),
				"-breaker-cooldown", flagCool.String(),
				"-seg-lines", strconv.Itoa(*flagSegLines),
				"-seg-bytes", strconv.FormatInt(*flagSegBytes, 10),
				"-checkpoint-every", strconv.FormatInt(*flagCkpt, 10),
				"-spill-budget", strconv.FormatInt(*flagSpillBudget, 10),
				"-lease-ttl", flagLeaseTTL.String(),
			}
			if *flagNoFF {
				args = append(args, "-no-fastforward")
			}
			if dir != "" {
				args = append(args, "-spill-dir", dir)
			}
			if *flagTenants != "" {
				args = append(args, "-tenant-weights", *flagTenants)
			}
			return exec.Command(self, args...)
		},
	})
	if err := fe.Start(); err != nil {
		log.Fatalf("oclmon: fleet start: %v", err)
	}
	defer fe.Close()

	ln, err := net.Listen("tcp", *flagAddr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "oclmon: fleet front end listening on http://%s (%d workers)\n", ln.Addr(), *flagWorkers)
	hs := &http.Server{Handler: fe.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	for i := 0; i < *flagRuns; i++ {
		resp, err := http.Post(fmt.Sprintf("http://%s/runs?n=%d", ln.Addr(), *flagN), "", nil)
		if err != nil {
			log.Fatalf("oclmon: boot run %d: %v", i+1, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			log.Printf("oclmon: boot run %d refused: %s", i+1, resp.Status)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	// Workers are SIGKILLed by Close; their spills are crash-safe and the
	// next fleet start replay-recovers them.
}
