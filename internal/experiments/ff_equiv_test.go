package experiments

import (
	"testing"

	"oclfpga/internal/device"
	"oclfpga/internal/kir"
	"oclfpga/internal/sim"
)

// TestExperimentsFastForwardEquivalence renders every experiment's table with
// fast-forward forced off and again with it on. The tables embed cycle
// counts, timestamps, captured traces, profile stats, and stall counters, so
// string equality here means the event-driven skip changed no observable at
// all across the whole evaluation suite.
func TestExperimentsFastForwardEquivalence(t *testing.T) {
	runners := []struct {
		name string
		run  func() (string, error)
	}{
		{"E1", func() (string, error) {
			r, err := E1TimestampOverhead(device.StratixV(), 400)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"E2SingleTask", func() (string, error) {
			r, err := E2ExecutionOrder(kir.SingleTask)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"E2NDRange", func() (string, error) {
			r, err := E2ExecutionOrder(kir.NDRange)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"E3", func() (string, error) {
			r, err := E3Table1(device.StratixV(), 16)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"E4", func() (string, error) {
			r, err := E4StallMonitor(12, 256)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"E5", func() (string, error) {
			r, err := E5Watchpoints(64)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"E6", func() (string, error) {
			r, err := E6TimestampPitfalls()
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"E7", func() (string, error) {
			r, err := E7StallFree(256)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"E8", func() (string, error) {
			r, err := E8CrossDevice()
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{"E9", func() (string, error) {
			r, err := E9ChannelStall(256)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
	}
	defer sim.SetFastForwardDisabled(false)
	for _, rn := range runners {
		t.Run(rn.name, func(t *testing.T) {
			sim.SetFastForwardDisabled(true)
			slow, err := rn.run()
			if err != nil {
				t.Fatalf("slow path: %v", err)
			}
			sim.SetFastForwardDisabled(false)
			fast, err := rn.run()
			if err != nil {
				t.Fatalf("fast path: %v", err)
			}
			if slow != fast {
				t.Fatalf("table differs with fast-forward:\n--- every cycle\n%s\n--- fast-forward\n%s", slow, fast)
			}
		})
	}
}

// TestSimBenchFastForwardEquivalence checks the benchmark workload itself:
// identical final cycle count either way (the output is validated inside
// RunSimBench), and the fast path must actually engage — a regression that
// silently disables fast-forward would otherwise pass every equivalence test
// while the benchmark quietly loses its speedup.
func TestSimBenchFastForwardEquivalence(t *testing.T) {
	slow, err := RunSimBench(512, true)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunSimBench(512, false)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Cycles != fast.Cycles {
		t.Fatalf("final cycle differs: slow %d vs fast %d", slow.Cycles, fast.Cycles)
	}
	if slow.FFJumps != 0 || slow.FFSkipped != 0 {
		t.Fatalf("slow path took fast-forward jumps: %d jumps, %d skipped", slow.FFJumps, slow.FFSkipped)
	}
	if fast.FFJumps == 0 || fast.FFSkipped == 0 {
		t.Fatal("fast path never fast-forwarded on the stall-heavy workload")
	}
	if fast.FFSkipped < fast.Cycles/2 {
		t.Fatalf("fast-forward skipped only %d of %d cycles on a workload built to be mostly quiescent",
			fast.FFSkipped, fast.Cycles)
	}
}

// TestStallMonitorFastForwardEngages: E4's two stall-monitor ibuffers poll
// every cycle, and the idle-fixpoint rule must still let its machine jump
// while the matmul waits on memory. (The E4 rows of the equivalence suites
// hold those jumps exact.)
func TestStallMonitorFastForwardEngages(t *testing.T) {
	EnableObserveForTest(0)
	_, err := E4StallMonitor(12, 256)
	ms := DisableObserveForTest()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if ff := m.FastForwardStats(); ff.Jumps == 0 {
			t.Fatalf("machine %d of E4 never fast-forwarded", i)
		}
	}
}
