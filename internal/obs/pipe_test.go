package obs

import (
	"reflect"
	"testing"
)

// recordMixed appends records from..to-1 of a mixed stream that interleaves
// four tracks — unit runs every step, detailed channel stalls and line
// fetches on some, a fault window opened and closed by key — with
// fast-forward jumps and a sample after every 7th step. It returns the sink
// calls the appends make, in append order: an Event per record (a window's
// span lands at its close) and a Sample per sample.
func recordMixed(r *Recorder, from, to int) []any {
	var calls []any
	for i := from; i < to; i++ {
		c := int64(i)
		r.Span(KindUnitRun, "unit:k", "run", c, c+3)
		calls = append(calls, Event{Kind: KindUnitRun, Track: "unit:k", Name: "run", Start: c, End: c + 3})
		if i%3 == 1 {
			r.SpanDetailID(r.Intern(KindChanStall), r.Intern("chan:pipe"), r.Intern("read-stall"), c, c+2, UnitDetail(r.Intern("k")))
			calls = append(calls, Event{Kind: KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: c, End: c + 2, Detail: "unit=k"})
		}
		if i%5 == 2 {
			r.Span(KindLineFetch, "lsu:k.a", "fetch", c, c+9)
			calls = append(calls, Event{Kind: KindLineFetch, Track: "lsu:k.a", Name: "fetch", Start: c, End: c + 9})
		}
		switch i % 11 {
		case 0:
			r.OpenWindow("stuck", Event{Kind: KindFault, Track: "fault:pipe", Name: "stuck", Start: c, Detail: "value=1"})
		case 5:
			r.CloseWindow("stuck", c)
			calls = append(calls, Event{Kind: KindFault, Track: "fault:pipe", Name: "stuck", Start: c - 5, End: c, Detail: "value=1"})
		}
		if i%13 == 6 {
			r.FFJump(c+4, c+8)
			calls = append(calls, Event{Kind: KindFFJump, Track: "sim:fast-forward", Name: "jump", Start: c + 4, End: c + 8})
		}
		if i%7 == 0 {
			sm := Sample{Cycle: c, Locals: []LocalSample{{Name: "ib", Reads: c}}}
			r.AddSample(sm)
			calls = append(calls, sm)
		}
	}
	return calls
}

// callLog is a sink that keeps every Event and Sample call, in order.
type callLog struct{ calls []any }

func (l *callLog) Event(e Event)        { l.calls = append(l.calls, e) }
func (l *callLog) Sample(s Sample)      { l.calls = append(l.calls, s) }
func (l *callLog) Finalize(int64) error { return nil }

// TestPipeDeliversInAppendOrder: the sink sees exactly the append calls, in
// append order across every track, whether delivery is synchronous or
// batched; a batched window delivers nothing before a full batch or a Sync,
// and Finalize inside the window syncs before it finalizes the sink.
func TestPipeDeliversInAppendOrder(t *testing.T) {
	want, wantLog := NewRecorder("d", Config{}), &callLog{}
	direct := NewRecorder("d", Config{Sink: NewFanout(want, wantLog)})
	appended := recordMixed(direct, 0, 1000)

	got, gotLog := NewRecorder("d", Config{}), &callLog{}
	piped := NewRecorder("d", Config{Sink: NewFanout(got, gotLog)})
	piped.Batch()
	recordMixed(piped, 0, 10)
	if n := len(gotLog.calls); n != 0 {
		t.Fatalf("sink saw %d records before a hand-off", n)
	}
	recordMixed(piped, 10, 1000)
	if err := direct.Finalize(2000); err != nil {
		t.Fatal(err)
	}
	if err := piped.Finalize(2000); err != nil {
		t.Fatal(err)
	}
	for name, log := range map[string]*callLog{"synchronous": wantLog, "batched": gotLog} {
		if len(log.calls) != len(appended) {
			t.Fatalf("%s delivery made %d sink calls, want %d", name, len(log.calls), len(appended))
		}
		for i := range appended {
			if !reflect.DeepEqual(log.calls[i], appended[i]) {
				t.Fatalf("%s delivery call %d = %+v, want %+v (append order)", name, i, log.calls[i], appended[i])
			}
		}
	}
	if !reflect.DeepEqual(got.Timeline(), want.Timeline()) {
		t.Fatal("batched timeline differs from synchronous delivery")
	}
	if !reflect.DeepEqual(got.Series(), want.Series()) {
		t.Fatal("batched series differs from synchronous delivery")
	}
}

// panicOnce panics at one event and accepts every other call.
type panicOnce struct{ left int }

func (p *panicOnce) Event(Event) {
	if p.left--; p.left == -1 {
		panic("delivery panic")
	}
}
func (p *panicOnce) Sample(Sample)        {}
func (p *panicOnce) Finalize(int64) error { return nil }

// TestPipeReraisesSinkPanic: a sink panic on the delivery goroutine comes
// back on the recording goroutine with the same value, and leaves no
// goroutine behind for a later Sync.
func TestPipeReraisesSinkPanic(t *testing.T) {
	r := NewRecorder("d", Config{Sink: &panicOnce{left: batchRecords + 10}})
	var got any
	func() {
		defer func() { got = recover() }()
		r.Batch()
		defer r.Sync()
		recordMixed(r, 0, 8*batchRecords)
	}()
	if got != "delivery panic" {
		t.Fatalf("recovered %v, want the sink's panic value", got)
	}
	if r.pipe.running {
		t.Fatal("delivery goroutine still marked running after the re-raise")
	}
	r.Sync() // nothing left to deliver or re-raise
}
