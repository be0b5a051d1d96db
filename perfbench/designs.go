package main

import (
	"fmt"
	"math/rand"

	"oclfpga/internal/device"
	"oclfpga/internal/hls"
	"oclfpga/internal/host"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/obs"
	"oclfpga/internal/sim"
	"oclfpga/internal/workload"
)

// The stall-heavy producer/consumer shape the simulator-throughput benchmark
// and oclmon share, compiled by experiments.CompileSimBench: a producer
// streams src through a depth-4 pipe into a consumer whose two dependent
// table loads stride past a DRAM row, so nearly every load pays a row
// activate and most cycles are quiescent. Only src is seed-chosen: it feeds
// the output but no address, so the seed changes the data and never the
// timing, and exact counts stay identical across seeds. The constants below
// are the kernel's table and strides, for its Go reference.
const (
	pcTblElems = 1 << 14
	pcStride1  = 1031
	pcStride2  = 523
	pcTblMod   = 97
)

// pcMem is the congested DRAM profile oclmon runs under: a row activate of
// 200 cycles against the compiler's scheduled 7.
var pcMem = mem.Config{RowHitLat: 60, RowMissLat: 200}

// pcInput returns n seed-chosen positive src values (small enough that the
// i32 sum in the consumer never wraps).
func pcInput(rng *rand.Rand, n int) []int64 {
	src := make([]int64, n)
	for i := range src {
		src[i] = 1 + rng.Int63n(1<<20)
	}
	return src
}

// pcExpected mirrors the consumer in Go.
func pcExpected(src []int64) []int64 {
	out := make([]int64, len(src))
	c := int64(0)
	for i, v := range src {
		w := ((c + int64(i)*pcStride1) & (pcTblElems - 1)) % pcTblMod
		w2 := (((w + int64(i)) * pcStride2) & (pcTblElems - 1)) % pcTblMod
		out[i] = (v + w2) / 2
		c = w2
	}
	return out
}

// newPCMachine stages a fresh machine (row buffers empty) with src loaded
// and both kernels launched; it returns the dst buffer the consumer fills.
func newPCMachine(d *hls.Design, src []int64, mc mem.Config, observe *obs.Config) (*sim.Machine, *mem.Buffer, error) {
	m := sim.New(d, sim.Options{MemConfig: mc, Observe: observe})
	sb, err := m.NewBuffer("src", kir.I32, len(src))
	if err != nil {
		return nil, nil, err
	}
	tbl, err := m.NewBuffer("tbl", kir.I32, pcTblElems)
	if err != nil {
		return nil, nil, err
	}
	dst, err := m.NewBuffer("dst", kir.I32, len(src))
	if err != nil {
		return nil, nil, err
	}
	copy(sb.Data, src)
	for i := range tbl.Data {
		tbl.Data[i] = int64(i % pcTblMod)
	}
	if _, err := m.Launch("producer", sim.Args{"src": sb}); err != nil {
		return nil, nil, err
	}
	if _, err := m.Launch("consumer", sim.Args{"tbl": tbl, "dst": dst}); err != nil {
		return nil, nil, err
	}
	return m, dst, nil
}

func checkOutput(got, want []int64) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("output[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// matmulDesign is the paper's §5.1 Listing 9 setup: a single-task matmul
// whose data_a load is bracketed by two take_snapshot sites feeding a
// two-instance stall-monitor ibuffer bank, plus the generated read_host
// interface kernel the controller drives.
type matmulDesign struct {
	d   *hls.Design
	ifc *host.Interface
}

func compileMatMul(size, depth int) (*matmulDesign, error) {
	p := kir.NewProgram("matmul")
	mm, err := workload.BuildMatMul(p, workload.MatMulConfig{Size: size, StallMonitor: true, Depth: depth})
	if err != nil {
		return nil, err
	}
	ifc := host.BuildInterface(p, mm.SM)
	d, err := hls.Compile(p, device.StratixV(), hls.Options{})
	if err != nil {
		return nil, err
	}
	return &matmulDesign{d: d, ifc: ifc}, nil
}

// matmulExpected is C = A x B with the kernel's i32 wrap-around.
func matmulExpected(a, b []int64, n int) []int64 {
	c := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for k := 0; k < n; k++ {
				acc += int32(a[i*n+k]) * int32(b[k*n+j])
			}
			c[i*n+j] = int64(acc)
		}
	}
	return c
}
