package sim

import (
	"fmt"
	"strings"
)

// DumpState renders a snapshot of every unit's pipeline occupancy — which
// flows sit at which stages, and each loop engine's resident progress. It is
// the tool of last resort when a design hangs.
func (m *Machine) DumpState() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle %d\n", m.cycle)
	all := append(append([]*Unit{}, m.units...), m.active...)
	for _, u := range all {
		fmt.Fprintf(&sb, "unit %s (started=%v done=%v)\n", u.xk.UnitName(), u.started, u.Done())
		dumpRegion(&sb, u.top, 1)
	}
	return sb.String()
}

func dumpRegion(sb *strings.Builder, re *regionExec, depth int) {
	ind := strings.Repeat("  ", depth)
	for i, it := range re.items {
		switch it := it.(type) {
		case *segExec:
			if len(it.flows) == 0 {
				continue
			}
			fmt.Fprintf(sb, "%sitem %d segment(depth %d): ", ind, i, it.seg.Depth)
			for _, f := range it.flows {
				fmt.Fprintf(sb, "[stage %d op %d iter %d] ", f.stage, f.opPtr, f.c.iter)
			}
			sb.WriteByte('\n')
			// report what each flow with pending ops is blocked on
			for fi, f := range it.flows {
				if f.stage >= len(it.byStage) || f.opPtr >= len(it.byStage[f.stage]) {
					continue
				}
				op := it.byStage[f.stage][f.opPtr].x
				fmt.Fprintf(sb, "%s  flow %d blocked on %s dst=%d guard=%d args=", ind, fi, op.Kind, op.Dst, op.Guard)
				for _, a := range op.Args {
					fmt.Fprintf(sb, "%d(ready=%d) ", a, f.c.readyAt(a))
				}
				if op.Guard >= 0 {
					fmt.Fprintf(sb, "guardReady=%d", f.c.readyAt(op.Guard))
				}
				sb.WriteByte('\n')
			}
			if it.stallUntil > 0 {
				fmt.Fprintf(sb, "%s  stallUntil=%d\n", ind, it.stallUntil)
			}
		case *loopExec:
			if len(it.residents) == 0 {
				continue
			}
			fmt.Fprintf(sb, "%sitem %d loop %q (II=%d mt=%v):\n", ind, i, it.r.Label, it.r.II, it.multithread)
			for _, r := range it.residents {
				fmt.Fprintf(sb, "%s  resident %d: eval=%v next=%d/%d inflight=%d\n",
					ind, r.id, r.evaluated, r.nextIter, r.total, r.inflight)
			}
			dumpRegion(sb, it.body, depth+1)
		}
	}
}
