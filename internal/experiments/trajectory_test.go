package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"oclfpga/internal/kir"
	"oclfpga/internal/sim"
)

var updateTrajectories = flag.Bool("update", false, "rewrite the state-hash trajectory goldens")

// trajectoryEvery is the capture grid of the state-hash trajectories.
const trajectoryEvery = 64

// trajectoryHorizon bounds the capture plan; every pinned workload ends
// well before it (captures past a machine's last cycle never fire).
const trajectoryHorizon = 1 << 20

// TestStateHashTrajectories pins, per workload, the machine's StateHash
// every trajectoryEvery cycles with every cycle stepped. The trajectories
// are goldens: any change to the simulator that shifts a single cycle of
// any channel transfer, stall counter, unit progress or LSU queue moves a
// hash and fails here. Regenerate with `go test ./internal/experiments -run
// TestStateHashTrajectories -update` only after an intended timing change.
func TestStateHashTrajectories(t *testing.T) {
	workloads := []struct {
		name string
		run  func() error
	}{
		// E4: matmul with its stall-monitor ibuffer bank and host interface
		{"e4_stallmon", func() error { _, err := E4StallMonitor(12, 256); return err }},
		{"simbench", func() error { _, err := RunSimBench(512, true); return err }},
		// E2 NDRange: the multithreaded loop engine
		{"e2_ndrange", func() error { _, err := E2ExecutionOrder(kir.NDRange); return err }},
	}
	var grid []int64
	for c := int64(trajectoryEvery); c <= trajectoryHorizon; c += trajectoryEvery {
		grid = append(grid, c)
	}
	defer sim.SetFastForwardDisabled(false)
	sim.SetFastForwardDisabled(true)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plans := make([][]int64, 8) // more than any workload's machine count
			for i := range plans {
				plans[i] = grid
			}
			EnableRewindForTest(0, plans)
			err := w.run()
			caps, cerr := DisableRewindForTest()
			if err != nil {
				t.Fatal(err)
			}
			if cerr != nil {
				t.Fatal(cerr)
			}
			var got bytes.Buffer
			for _, c := range caps {
				fmt.Fprintf(&got, "%d %d %016x\n", c.Machine, c.Cycle, c.Hash)
			}
			golden := filepath.Join("testdata", "trajectory_"+w.name+".txt")
			if *updateTrajectories {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d captures)", golden, len(caps))
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden missing (run with -update to create): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("state-hash trajectory diverged from %s: %s", golden, firstLineDiff(got.Bytes(), want))
			}
		})
	}
}

// firstLineDiff names the first capture line where got and want differ.
func firstLineDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
