// Package fault implements a deterministic, seeded fault-injection subsystem
// for the simulated fabric. A Plan is a schedule of cycle-triggered fault
// events the machine consults each tick; every fault reproduces a hazard the
// paper warns about (§3.1 stale timestamps and counter skew, §5.1 channel
// back-pressure) or a fabric failure mode the debug stack must detect.
//
// Plans are plain data: the same plan against the same design and inputs
// produces byte-identical traces and diagnostics, so every injected failure
// reproduces. Random plans derive entirely from their seed.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault kinds.
const (
	// FreezeRead freezes a channel's consumer side: every read on the
	// target channel blocks while the fault is active (a wedged consumer).
	FreezeRead Kind = iota
	// FreezeWrite freezes a channel's producer side: every write on the
	// target channel blocks while the fault is active (a wedged producer).
	FreezeWrite
	// DropWriteNB silently discards non-blocking writes to the target
	// channel while active; the drop is counted in the channel stats so it
	// is never invisible to the profiling stack.
	DropWriteNB
	// DepthOverride forces the target channel's effective depth to Value at
	// the trigger cycle — the runtime reproduction of the §3.1
	// compiler-deepening hazard (a declared register channel silently
	// becoming a FIFO of stale values).
	DepthOverride
	// MemDelay adds Value cycles to every global-memory response while
	// active (a congested or refreshing DRAM).
	MemDelay
	// StuckUnit stops the target kernel's compute units from ticking while
	// active (a latched-up pipeline).
	StuckUnit
	// LaunchSkew delays the target autorun kernel's launch by Value cycles —
	// the §3.1 persistent-counter launch-skew spike.
	LaunchSkew
)

var kindNames = map[Kind]string{
	FreezeRead:    "freeze-read",
	FreezeWrite:   "freeze-write",
	DropWriteNB:   "drop-nb",
	DepthOverride: "depth",
	MemDelay:      "mem-delay",
	StuckUnit:     "stuck",
	LaunchSkew:    "skew",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// NeedsTarget reports whether the kind requires a channel or kernel target.
func (k Kind) NeedsTarget() bool { return k != MemDelay }

// ChannelFault reports whether the kind targets a channel (vs a kernel).
func (k Kind) ChannelFault() bool {
	return k == FreezeRead || k == FreezeWrite || k == DropWriteNB || k == DepthOverride
}

// Event is one scheduled fault.
type Event struct {
	Kind   Kind
	Target string // channel, kernel or unit ("k[1]") name; "" for MemDelay
	At     int64  // trigger cycle
	// Duration is how many cycles the fault stays active; 0 means forever.
	// Ignored for DepthOverride and LaunchSkew, which are point events.
	Duration int64
	// Value carries the kind-specific parameter: the forced depth
	// (DepthOverride), the added latency (MemDelay), or the skew cycles
	// (LaunchSkew).
	Value int64
}

// ActiveAt reports whether the event is in effect at the given cycle.
func (e Event) ActiveAt(cycle int64) bool {
	if cycle < e.At {
		return false
	}
	return e.Duration == 0 || cycle < e.At+e.Duration
}

// Forever reports whether the event never expires.
func (e Event) Forever() bool { return e.Duration == 0 }

// NextBoundary returns the earliest cycle strictly after now at which the
// event's activation state can change (its onset, or its expiry for finite
// events), or math.MaxInt64 when no transition remains. The simulator's
// fast-forward path must never jump across a boundary: fault application is
// cycle-exact, so every transition is a mandatory wake-up point.
func (e Event) NextBoundary(now int64) int64 {
	if e.At > now {
		return e.At
	}
	if e.Duration > 0 && e.At+e.Duration > now {
		return e.At + e.Duration
	}
	return math.MaxInt64
}

// String renders the event in the spec syntax ParseSpec accepts.
func (e Event) String() string {
	s := e.Kind.String()
	if e.Target != "" {
		s += ":" + e.Target
	}
	s += fmt.Sprintf("@%d", e.At)
	if e.Duration > 0 {
		s += fmt.Sprintf("+%d", e.Duration)
	}
	switch e.Kind {
	case DepthOverride, MemDelay, LaunchSkew:
		s += fmt.Sprintf("=%d", e.Value)
	}
	return s
}

// Plan is a deterministic schedule of fault events.
type Plan struct {
	Seed   int64 // 0 for hand-written plans
	Events []Event
}

// String renders the plan as a comma-separated spec list.
func (p *Plan) String() string {
	if p == nil || len(p.Events) == 0 {
		return "(no faults)"
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Validate checks structural sanity (negative cycles, missing targets,
// out-of-range values).
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		if e.At < 0 || e.Duration < 0 {
			return fmt.Errorf("fault: event %d: negative cycle or duration", i)
		}
		if e.Kind.NeedsTarget() && e.Target == "" {
			return fmt.Errorf("fault: event %d (%s): missing target", i, e.Kind)
		}
		switch e.Kind {
		case DepthOverride:
			if e.Value < 0 {
				return fmt.Errorf("fault: event %d: negative depth override", i)
			}
		case MemDelay, LaunchSkew:
			if e.Value < 0 {
				return fmt.Errorf("fault: event %d: negative %s value", i, e.Kind)
			}
		}
	}
	return nil
}

// Targets returns the distinct targets of channel-directed events — the set
// of channels a diagnosis may legitimately blame.
func (p *Plan) Targets(channel bool) []string {
	if p == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range p.Events {
		if e.Kind.ChannelFault() != channel || e.Target == "" || seen[e.Target] {
			continue
		}
		seen[e.Target] = true
		out = append(out, e.Target)
	}
	sort.Strings(out)
	return out
}

// ParseSpec parses one fault spec of the form
//
//	kind[:target]@cycle[+duration][=value]
//
// e.g. "freeze-read:pipe@500", "freeze-write:pipe@500+200",
// "depth:pipe@0=16", "mem-delay@1000+500=40", "stuck:consumer@400",
// "skew:timer@0=250".
func ParseSpec(s string) (Event, error) {
	var e Event
	head, rest, ok := strings.Cut(s, "@")
	if !ok {
		return e, fmt.Errorf("fault: spec %q: missing @cycle", s)
	}
	kindStr, target, _ := strings.Cut(head, ":")
	found := false
	for k, name := range kindNames {
		if name == kindStr {
			e.Kind, found = k, true
			break
		}
	}
	if !found {
		return e, fmt.Errorf("fault: spec %q: unknown kind %q", s, kindStr)
	}
	e.Target = target
	if before, valStr, hasVal := strings.Cut(rest, "="); hasVal {
		rest = before
		v, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			return e, fmt.Errorf("fault: spec %q: bad value: %v", s, err)
		}
		e.Value = v
	}
	atStr, durStr, hasDur := strings.Cut(rest, "+")
	at, err := strconv.ParseInt(atStr, 10, 64)
	if err != nil {
		return e, fmt.Errorf("fault: spec %q: bad cycle: %v", s, err)
	}
	e.At = at
	if hasDur {
		d, err := strconv.ParseInt(durStr, 10, 64)
		if err != nil {
			return e, fmt.Errorf("fault: spec %q: bad duration: %v", s, err)
		}
		e.Duration = d
	}
	if e.Kind.NeedsTarget() && e.Target == "" {
		return e, fmt.Errorf("fault: spec %q: %s needs a :target", s, e.Kind)
	}
	return e, nil
}

// ParseSpecs parses a comma-separated spec list into a plan.
func ParseSpecs(s string) (*Plan, error) {
	p := &Plan{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, e)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// CampaignSpec bounds the shape of randomly generated plans.
type CampaignSpec struct {
	// Channels and Kernels are the legal targets.
	Channels []string
	Kernels  []string
	// MaxEvents bounds events per plan (default 3).
	MaxEvents int
	// Horizon is the trigger-cycle range (default 4000).
	Horizon int64
	// MaxTransient is the longest transient fault duration (default 2000).
	// Keep it below the machine's StallLimit so transient faults are
	// tolerated rather than misreported as deadlocks.
	MaxTransient int64
	// AllowFatal admits forever-freezes and forever-stuck units — plans
	// that legitimately deadlock and must be blamed (default true when any
	// plan is generated with NewRandomPlan; gate with the field).
	AllowFatal bool
	// AllowDrop admits DropWriteNB events, which lose data by design; leave
	// it off for campaigns asserting functional equivalence.
	AllowDrop bool
}

func (c *CampaignSpec) fill() {
	if c.MaxEvents == 0 {
		c.MaxEvents = 3
	}
	if c.Horizon == 0 {
		c.Horizon = 4000
	}
	if c.MaxTransient == 0 {
		c.MaxTransient = 2000
	}
}

// NewRandomPlan derives a plan entirely from the seed: the same seed and
// spec always produce the same plan.
func NewRandomPlan(seed int64, spec CampaignSpec) *Plan {
	spec.fill()
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	n := rng.Intn(spec.MaxEvents) + 1
	for i := 0; i < n; i++ {
		var kinds []Kind
		if len(spec.Channels) > 0 {
			kinds = append(kinds, FreezeRead, FreezeWrite, DepthOverride)
			if spec.AllowDrop {
				kinds = append(kinds, DropWriteNB)
			}
		}
		if len(spec.Kernels) > 0 {
			kinds = append(kinds, StuckUnit)
		}
		kinds = append(kinds, MemDelay)
		e := Event{Kind: kinds[rng.Intn(len(kinds))], At: rng.Int63n(spec.Horizon)}
		switch {
		case e.Kind.ChannelFault():
			e.Target = spec.Channels[rng.Intn(len(spec.Channels))]
		case e.Kind == StuckUnit:
			e.Target = spec.Kernels[rng.Intn(len(spec.Kernels))]
		}
		switch e.Kind {
		case DepthOverride:
			e.Value = rng.Int63n(16) + 1 // never zero: a vanished channel is not a modeled fault
		case MemDelay:
			e.Value = rng.Int63n(64) + 1
			e.Duration = rng.Int63n(spec.MaxTransient) + 1
		}
		if e.Kind == FreezeRead || e.Kind == FreezeWrite || e.Kind == StuckUnit || e.Kind == DropWriteNB {
			if spec.AllowFatal && rng.Intn(4) == 0 {
				e.Duration = 0 // forever: the run must deadlock and be blamed
			} else {
				e.Duration = rng.Int63n(spec.MaxTransient) + 1
			}
		}
		p.Events = append(p.Events, e)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// Fatal reports whether the plan contains an event that necessarily wedges
// the design forever (a forever freeze or forever-stuck unit).
func (p *Plan) Fatal() bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		switch e.Kind {
		case FreezeRead, FreezeWrite, StuckUnit:
			if e.Forever() {
				return true
			}
		}
	}
	return false
}
