package hls

import (
	"fmt"
	"sort"

	"oclfpga/internal/area"
	"oclfpga/internal/device"
	"oclfpga/internal/kir"
)

// Compile validates, elaborates, schedules, and reports on a program,
// producing the Design the simulator executes. It is the equivalent of
// `aoc kernel.cl` in the paper's flow.
func Compile(p *kir.Program, dev *device.Device, opts Options) (*Design, error) {
	opts.fill()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("hls: %w", err)
	}
	d := &Design{Program: p, Device: dev, Options: opts}
	d.Logf("aoc (simulated) compiling program %q for %s", p.Name, dev.Name)

	d.sizeChannels()

	for _, k := range p.Kernels {
		for cu := 0; cu < k.NumComputeUnits; cu++ {
			xk, err := lowerKernel(d, k, cu)
			if err != nil {
				return nil, fmt.Errorf("hls: %w", err)
			}
			d.scheduleKernel(xk)
			markIdleFixpoints(xk)
			d.selectLSUs(xk)
			d.Kernels = append(d.Kernels, xk)
		}
		if k.NumComputeUnits > 1 {
			d.Logf("kernel %s: replicated into %d compute units", k.Name, k.NumComputeUnits)
		}
	}

	feats := d.extractFeatures()
	sort.SliceStable(feats, func(i, j int) bool { return feats[i].Name < feats[j].Name })

	instrumented := false
	for _, f := range feats {
		if f.Role != kir.RoleUser {
			instrumented = true
		}
	}
	for _, l := range p.Libs {
		if l.Timestamp {
			instrumented = true
		}
	}
	aopts := area.Options{FreqOptimize: !instrumented && !opts.DisableFreqOptimize}
	if aopts.FreqOptimize {
		d.Logf("synthesis: applying frequency optimization (register duplication) to user kernels")
	}

	var chans []area.ChanInfo
	for i, c := range p.Chans {
		chans = append(chans, area.ChanInfo{Name: c.Name, EffDepth: d.ChanDepth[i], Bits: d.ChanBits[i]})
	}
	d.Area = area.Estimate(dev, feats, chans, aopts)
	d.Logf("fit: %d ALUTs (%.1fK), %d FFs, %d RAM blocks, %d memory bits; Fmax %.1f MHz",
		d.Area.ALUTs, d.Area.LogicK(), d.Area.Regs, d.Area.M20Ks, d.Area.MemBits, d.Area.FmaxMHz)
	return d, nil
}
