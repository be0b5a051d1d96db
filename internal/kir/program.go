package kir

import "fmt"

// Program is a complete OpenCL-for-FPGA design: kernels, the channels that
// connect them, and HDL library functions integrated during compilation
// (paper §3.1, Listing 3).
type Program struct {
	Name    string
	Kernels []*Kernel
	Chans   []*Chan
	Libs    []*LibFunc

	kernelByName map[string]*Kernel
	chanByName   map[string]*Chan
	libByName    map[string]*LibFunc
}

// NewProgram returns an empty program with the given design name.
func NewProgram(name string) *Program {
	return &Program{
		Name:         name,
		kernelByName: map[string]*Kernel{},
		chanByName:   map[string]*Chan{},
		libByName:    map[string]*LibFunc{},
	}
}

// Chan is a compile-time channel declaration. Depth 0 declares the paper's
// "always the most up-to-date value" register channel (Listing 1); positive
// depths declare FIFOs. EffDepth is the depth actually synthesized — the
// compiler's channel-depth optimization pass (the pitfall in §3.1) may raise
// it above the declared Depth.
type Chan struct {
	ID       int
	Name     string
	Depth    int
	EffDepth int
	Elem     Type
}

func (c *Chan) String() string {
	return fmt.Sprintf("channel %s %s __attribute__((depth(%d)))", c.Elem, c.Name, c.Depth)
}

// AddChan declares a channel. It panics on duplicate names: channel names are
// global link-time symbols, exactly as in AOCL.
func (p *Program) AddChan(name string, depth int, elem Type) *Chan {
	if _, dup := p.chanByName[name]; dup {
		panic(fmt.Sprintf("kir: duplicate channel %q", name))
	}
	c := &Chan{ID: len(p.Chans), Name: name, Depth: depth, EffDepth: depth, Elem: elem}
	p.Chans = append(p.Chans, c)
	p.chanByName[name] = c
	return c
}

// AddChanArray declares n channels named base[0..n-1], mirroring the paper's
// `channel int data_in[N]` arrays (Listing 10). One channel still has exactly
// one producer and one consumer; the array is pure naming.
func (p *Program) AddChanArray(base string, n, depth int, elem Type) []*Chan {
	cs := make([]*Chan, n)
	for i := range cs {
		cs[i] = p.AddChan(fmt.Sprintf("%s[%d]", base, i), depth, elem)
	}
	return cs
}

// ChanByName returns the named channel, or nil.
func (p *Program) ChanByName(name string) *Chan { return p.chanByName[name] }

// KernelByName returns the named kernel, or nil.
func (p *Program) KernelByName(name string) *Kernel { return p.kernelByName[name] }

// LibByName returns the named library function, or nil.
func (p *Program) LibByName(name string) *LibFunc { return p.libByName[name] }

// LibFunc describes an OpenCL library function with an HDL implementation,
// the mechanism the paper uses for the preferred timestamp (Listing 3): an
// OpenCL declaration for emulation plus a Verilog module for synthesis.
type LibFunc struct {
	Name    string
	Params  int  // number of value parameters
	Latency int  // pipeline latency of the synthesized module, cycles
	ALUTs   int  // area cost of one instantiation
	FFs     int  // register cost of one instantiation
	Shared  bool // one instance shared across call sites (e.g. one counter)
	// Timestamp marks the function as an HDL cycle counter (get_time); the
	// area model charges its coupling penalty per call site.
	Timestamp bool

	// Synth is the synthesized semantics: given the global cycle counter and
	// the evaluated arguments, produce the result. For get_time this returns
	// the cycle count, ignoring the dependence-manufacturing command arg.
	// The simulator reuses args across calls, so Synth must not retain it.
	Synth func(cycle int64, args []int64) int64
	// Emu is the emulation semantics from the OpenCL definition; for
	// get_time the paper's body is `return command + 1`. Like Synth, it
	// must not retain args.
	Emu func(args []int64) int64
}

// AddLib registers a library function for use by OpCall.
func (p *Program) AddLib(f *LibFunc) *LibFunc {
	if _, dup := p.libByName[f.Name]; dup {
		panic(fmt.Sprintf("kir: duplicate library function %q", f.Name))
	}
	p.Libs = append(p.Libs, f)
	p.libByName[f.Name] = f
	return f
}

// AddKernel creates an empty kernel and registers it with the program.
func (p *Program) AddKernel(name string, mode Mode) *Kernel {
	if _, dup := p.kernelByName[name]; dup {
		panic(fmt.Sprintf("kir: duplicate kernel %q", name))
	}
	k := &Kernel{
		Name:            name,
		Mode:            mode,
		NumComputeUnits: 1,
		Program:         p,
		Body:            &Region{},
	}
	p.Kernels = append(p.Kernels, k)
	p.kernelByName[name] = k
	return k
}
