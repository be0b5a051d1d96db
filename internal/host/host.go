// Package host implements the paper's host interface (§5.1, Listing 10,
// Figure 4): a kernel that forwards commands from the host to ibuffer
// command channels and drains ibuffer output channels into global memory,
// plus the host-side controller that drives it.
//
// Channel indices are runtime values, so the kernel uses the paper's idiom:
// a fully unrolled loop over instances with a predicated channel operation
// per instance (`#pragma unroll … if (i == id)`). The expansion is done at
// IR build time — a channel endpoint is a compile-time object, so unrolling
// must materialize one predicated endpoint per instance, which is exactly
// the hardware the paper's #pragma unroll produces.
package host

import (
	"errors"
	"fmt"

	"oclfpga/internal/core"
	"oclfpga/internal/kir"
	"oclfpga/internal/mem"
	"oclfpga/internal/sim"
	"oclfpga/internal/supervise"
	"oclfpga/internal/trace"
)

// Sentinel errors for the two distinct host-side failure modes of Send.
// They are distinguishable with errors.Is so a host program can tell a bad
// instance id (a programming error) from a saturated command channel (a
// transient back-pressure condition worth retrying).
var (
	// ErrUnknownInstance: the instance id is outside the bank.
	ErrUnknownInstance = errors.New("host: unknown ibuffer instance")
	// ErrCommandFull: the instance's command channel is full; the ibuffer is
	// not consuming commands (wedged or frozen by fault injection).
	ErrCommandFull = errors.New("host: command channel full")
)

// Interface is the generated host-interface kernel for one ibuffer bank.
type Interface struct {
	Kernel *kir.Kernel
	IB     *core.IBuffer
	Name   string
}

// BuildInterface generates the read_host kernel (Listing 10) for an ibuffer
// bank: it forwards the command to the selected instance's command channel
// and, for CmdRead, drains 2*DEPTH words from that instance's output channel
// into the output buffer.
func BuildInterface(p *kir.Program, ib *core.IBuffer) *Interface {
	name := ib.Config.Name + "_read_host"
	k := p.AddKernel(name, kir.SingleTask)
	k.Role = kir.RoleHostInterface
	cmd := k.AddScalar("cmd", kir.I32)
	id := k.AddScalar("id", kir.I32)
	out := k.AddGlobal("output", kir.I64)
	b := k.NewBuilder()

	n := ib.Config.N
	// unrolled instance selection: one predicated endpoint per channel
	for i := 0; i < n; i++ {
		i := i
		eq := b.CmpEQ(b.Ci32(int64(i)), id.Val)
		b.If(eq, func(tb *kir.Builder) {
			tb.ChanWrite(ib.Cmd[i], cmd.Val)
		})
	}
	// when the command is READ, drain DEPTH entries (timestamp + data each)
	isRead := b.CmpEQ(cmd.Val, b.Ci32(core.CmdRead))
	nents := b.Select(isRead, b.Ci32(int64(ib.Config.Depth)), b.Ci32(0))
	b.For("drain", b.Ci32(0), nents, b.Ci32(1), nil, func(lb *kir.Builder, kv kir.Val, _ []kir.Val) []kir.Val {
		base := lb.Mul(kv, lb.Ci32(2))
		for i := 0; i < n; i++ {
			i := i
			eq := lb.CmpEQ(lb.Ci32(int64(i)), id.Val)
			lb.If(eq, func(tb *kir.Builder) {
				tt := tb.ChanRead(ib.OutT[i])
				tb.Store(out, base, tt)
				dd := tb.ChanRead(ib.OutD[i])
				tb.Store(out, tb.Add(base, tb.Ci32(1)), dd)
			})
		}
		return nil
	})
	return &Interface{Kernel: k, IB: ib, Name: name}
}

// Controller drives one ibuffer bank from the host through its interface
// kernel, mirroring gdb-style start/stop/read interaction.
type Controller struct {
	M   *sim.Machine
	IB  *core.IBuffer
	Ifc *Interface
	Out *mem.Buffer

	// SendTimeout bounds the first Send attempt to this many cycles (0 = run
	// to completion, the pre-timeout behaviour). With a timeout, a Send that
	// would hang forever instead returns a *sim.DeadlockError describing
	// what the fabric is waiting on.
	SendTimeout int64
	// Retries is how many additional bounded attempts a timed-out Send makes
	// before giving up. Each retry continues the same simulation, so a
	// slow-but-progressing drain eventually completes. Retry budgets follow
	// an exponential backoff schedule (SendTimeout, 2x, 4x, ... capped at
	// 64x) with deterministic seeded jitter: a genuinely slow drain gets
	// rapidly growing slices instead of thousands of identical tiny ones,
	// while a fleet of controllers sharing a timeout doesn't re-poll in
	// lockstep. See supervise.Backoff.
	Retries int
	// BackoffSeed seeds the retry schedule's jitter; controllers built from
	// the same seed retry on identical schedules. The schedule never shapes
	// the recorded stream: RunFor is slice-invariant, so a Send records
	// exactly what one uninterrupted run would, whatever its budgets.
	BackoffSeed int64
	// Attempts counts RunFor attempts across all Sends — observability for
	// tests and callers tuning the schedule.
	Attempts int64

	// TruncatedWords accumulates orphaned trailing words ReadTrace found in
	// drained streams (see trace.Decode): a non-zero value means some drain
	// stopped mid-record and a partial event was discarded.
	TruncatedWords int64
}

// NewController allocates the readback buffer and returns a controller.
func NewController(m *sim.Machine, ifc *Interface) (*Controller, error) {
	buf, err := m.NewBuffer(ifc.Name+"_output", kir.I64, ifc.IB.ReadoutWords())
	if err != nil {
		return nil, err
	}
	return &Controller{M: m, IB: ifc.IB, Ifc: ifc, Out: buf}, nil
}

// Send launches the interface kernel to deliver cmd to instance id and runs
// the machine until delivery (and, for CmdRead, the drain) completes. A bad
// id wraps ErrUnknownInstance; a saturated command channel wraps
// ErrCommandFull before anything is launched, so the failed Send leaves no
// half-delivered state behind.
func (c *Controller) Send(id int, cmd int64) error {
	if id < 0 || id >= c.IB.Config.N {
		return fmt.Errorf("%w: instance %d out of range [0,%d)", ErrUnknownInstance, id, c.IB.Config.N)
	}
	cc := c.M.Channel(c.IB.Cmd[id].Name)
	if cc != nil && cc.Len() >= cc.Depth() && cc.Depth() > 0 {
		return fmt.Errorf("%w: instance %d command channel %q at occupancy %d/%d",
			ErrCommandFull, id, cc.Name(), cc.Len(), cc.Depth())
	}
	if _, err := c.M.Launch(c.Ifc.Name, sim.Args{"cmd": cmd, "id": id, "output": c.Out}); err != nil {
		return err
	}
	return c.run()
}

// run executes the machine with the controller's timeout policy: the first
// attempt gets SendTimeout cycles, each retry an exponentially larger budget
// from the seeded backoff schedule.
func (c *Controller) run() error {
	if c.SendTimeout <= 0 {
		return c.M.Run()
	}
	budgets := supervise.Backoff{Base: c.SendTimeout, Seed: c.BackoffSeed}.Schedule(1 + c.Retries)
	var err error
	for _, budget := range budgets {
		c.Attempts++
		err = c.M.RunFor(budget)
		if err == nil {
			return nil
		}
		var de *sim.DeadlockError
		if !errors.As(err, &de) || !de.Timeout() {
			return err // a real hang diagnosis (or machine error), not a budget expiry
		}
	}
	return err
}

// Reset clears instance id and restarts sampling.
func (c *Controller) Reset(id int) error { return c.Send(id, core.CmdReset) }

// StartLinear puts instance id into linear sampling.
func (c *Controller) StartLinear(id int) error { return c.Send(id, core.CmdSampleLinear) }

// StartCyclic puts instance id into flight-recorder sampling.
func (c *Controller) StartCyclic(id int) error { return c.Send(id, core.CmdSampleCyclic) }

// Stop freezes instance id.
func (c *Controller) Stop(id int) error { return c.Send(id, core.CmdStop) }

// ReadTrace drains instance id's trace buffer and decodes it. Truncated
// drains (an odd word count — a partial record) are tallied on
// TruncatedWords rather than silently dropped.
func (c *Controller) ReadTrace(id int) ([]trace.Record, error) {
	if err := c.Send(id, core.CmdRead); err != nil {
		return nil, err
	}
	words := append([]int64(nil), c.Out.Data...)
	recs, truncated := trace.Decode(words)
	c.TruncatedWords += int64(truncated)
	return recs, nil
}
