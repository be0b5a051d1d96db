package main

import (
	"encoding/json"
	"os"
	"time"
)

// The ledger is the traced run's layer clock. Every layer call the benchmark
// makes is bracketed by a span (name, op id, parent, start, end); per-event
// calls (sink Event/Sample, VFS writes) are folded into one span per
// (op, layer, parent) holding a call count and the summed time, so a run of
// tens of thousands of sink calls costs two clock reads each and no
// allocation. A span's self time is its duration minus its children's; the
// op's root span keeps whatever no layer claimed, which is the ledger's
// unaccounted share.
//
// Spans stay in memory and are written once at the end as Chrome
// trace_event JSON, which opens in Perfetto next to the device timelines.
// A nil *ledger is the untraced run: every method is a no-op.

type span struct {
	name   string
	op     int
	parent int // index into ledger.spans; -1 for an op root
	start  time.Duration
	dur    time.Duration
	count  int64 // calls folded into this span (1 for a plain span)
	child  time.Duration
}

type foldKey struct {
	op     int
	name   string
	parent int
}

type ledger struct {
	epoch time.Time
	spans []span
	stack []int // open spans, innermost last
	folds map[foldKey]int
	op    int
}

func newLedger() *ledger {
	return &ledger{epoch: time.Now(), folds: map[foldKey]int{}}
}

func (l *ledger) now() time.Duration { return time.Since(l.epoch) }

func (l *ledger) top() int {
	if len(l.stack) == 0 {
		return -1
	}
	return l.stack[len(l.stack)-1]
}

// startOp starts the op clock and, when tracing, opens the op's root span
// (the op id is l.op, set by the caller).
func (l *ledger) startOp() time.Time {
	if l != nil {
		l.stack = l.stack[:0]
		l.begin("op")
	}
	return time.Now()
}

// stopOp stops the op clock started at t0, closing every open span.
func (l *ledger) stopOp(t0 time.Time) time.Duration {
	wall := time.Since(t0)
	if l != nil {
		for len(l.stack) > 0 {
			l.end()
		}
	}
	return wall
}

// unwind closes every open span but the op root.
func (l *ledger) unwind() {
	if l == nil {
		return
	}
	for len(l.stack) > 1 {
		l.end()
	}
}

// begin opens a child of the innermost open span.
func (l *ledger) begin(name string) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: name, op: l.op, parent: l.top(), start: l.now(), count: 1})
	l.stack = append(l.stack, len(l.spans)-1)
}

// end closes the innermost open span.
func (l *ledger) end() {
	if l == nil {
		return
	}
	i := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	l.spans[i].dur = l.now() - l.spans[i].start
	if p := l.spans[i].parent; p >= 0 {
		l.spans[p].child += l.spans[i].dur
	}
}

// time runs fn inside a span named name.
func (l *ledger) time(name string, fn func()) {
	l.begin(name)
	fn()
	l.end()
}

// fold opens a folded call of layer name under the innermost open span and
// returns a token for unfold.
func (l *ledger) fold(name string) time.Duration {
	if l == nil {
		return 0
	}
	k := foldKey{op: l.op, name: name, parent: l.top()}
	i, ok := l.folds[k]
	if !ok {
		l.spans = append(l.spans, span{name: name, op: l.op, parent: k.parent, start: l.now()})
		i = len(l.spans) - 1
		l.folds[k] = i
	}
	l.spans[i].count++
	l.stack = append(l.stack, i)
	return l.now()
}

// unfold closes the folded call fold opened; t0 is fold's token.
func (l *ledger) unfold(t0 time.Duration) {
	if l == nil {
		return
	}
	i := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	d := l.now() - t0
	l.spans[i].dur += d
	if p := l.spans[i].parent; p >= 0 {
		l.spans[p].child += d
	}
}

// opSelf sums the self time (ms) of op's spans per span name and returns it
// with the op's wall time. The "op" entry is the root's self time: the
// unaccounted remainder.
func (l *ledger) opSelf(op int) (selfMs map[string]float64, wallMs float64) {
	selfMs = map[string]float64{}
	for i := len(l.spans) - 1; i >= 0; i-- {
		s := &l.spans[i]
		if s.op != op {
			if s.op < op {
				break
			}
			continue
		}
		selfMs[s.name] += ms(s.dur - s.child)
		if s.parent < 0 {
			wallMs = ms(s.dur)
		}
	}
	return selfMs, wallMs
}

// writeChrome writes every span as a Chrome trace_event "X" event: one
// thread row per op, folded spans drawn from their first call with their
// summed duration and the call count in args.
func (l *ledger) writeChrome(path string, fingerprint map[string]any) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]ev, 0, len(l.spans))
	for _, s := range l.spans {
		parent := ""
		if s.parent >= 0 {
			parent = l.spans[s.parent].name
		}
		evs = append(evs, ev{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur), Pid: 1, Tid: s.op,
			Args: map[string]any{"op": s.op, "parent": parent, "count": s.count, "self_us": us(s.dur - s.child)},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": fingerprint})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
