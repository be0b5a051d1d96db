package obs

import (
	"reflect"
	"testing"
)

// recordMixed appends records from..to-1 of a mixed stream: spans with a
// sample after every 7th.
func recordMixed(r *Recorder, from, to int) {
	for i := from; i < to; i++ {
		r.Span(KindUnitRun, "unit:k", "run", int64(i), int64(i+3))
		if i%7 == 0 {
			r.AddSample(Sample{Cycle: int64(i), Locals: []LocalSample{{Name: "ib", Reads: int64(i)}}})
		}
	}
}

// TestPipeDeliversInAppendOrder: a batched window delivers exactly the calls
// synchronous delivery makes, in the same order, and nothing reaches the
// sink before a full batch or a Sync. Finalize inside the window syncs
// before it finalizes the sink.
func TestPipeDeliversInAppendOrder(t *testing.T) {
	want := NewRecorder("d", Config{})
	direct := NewRecorder("d", Config{Sink: want})
	recordMixed(direct, 0, 1000)

	got := NewRecorder("d", Config{})
	piped := NewRecorder("d", Config{Sink: got})
	piped.Batch()
	recordMixed(piped, 0, 10)
	if n := got.EventCount() + got.SampleCount(); n != 0 {
		t.Fatalf("sink saw %d records before a hand-off", n)
	}
	recordMixed(piped, 10, 1000)
	if err := direct.Finalize(2000); err != nil {
		t.Fatal(err)
	}
	if err := piped.Finalize(2000); err != nil {
		t.Fatal(err)
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
