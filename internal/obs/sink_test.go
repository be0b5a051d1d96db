package obs

import (
	"bytes"
	"strings"
	"testing"
)

// feedRecorder drives a recorder through a representative mix of records:
// instants, spans, windows, ff-jumps, samples, post-finalize drops.
func feedRecorder(r *Recorder) {
	r.Instant(KindLaunch, "unit:k", "launch", 0, "")
	r.OpenWindow("run:k", Event{Kind: KindUnitRun, Track: "unit:k", Name: "run", Start: 1})
	r.Add(Event{Kind: KindChanStall, Track: "chan:pipe", Name: "read-stall", Start: 5, End: 24, Detail: "unit=k"})
	r.AddSample(Sample{Cycle: 100, Channels: []ChannelSample{{Name: "pipe", Len: 3}}})
	r.FFJump(30, 70)
	r.Span(KindLineFetch, "lsu:k/tbl#0", "burst", 80, 99)
	r.CloseWindow("run:k", 120)
	r.Finalize(125)
	r.Add(Event{Kind: KindChanStall, Track: "chan:pipe", Name: "late", Start: 1, End: 2}) // dropped
}

func TestFanoutForwardsEverything(t *testing.T) {
	var spill bytes.Buffer
	tap := NewNDJSONSink(&spill, "d", 50)
	head := NewRecorder("d", Config{SampleEvery: 50})
	rec := NewRecorder("d", Config{SampleEvery: 50, Sink: NewFanout(nil, tap, nil)})
	feedRecorder(rec)
	feedRecorder(head)

	rtl, rser, err := ReplayNDJSON(bytes.NewReader(spill.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantTL, wantSer := head.Timeline(), head.Series()
	// the replayed recorder never saw the post-finalize drop
	wantTL.DroppedEvents = 0
	var b1, b2 bytes.Buffer
	if err := WriteTimeline(&b1, wantTL); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimeline(&b2, rtl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("replayed timeline differs:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	b1.Reset()
	b2.Reset()
	if err := WriteSeries(&b1, wantSer); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeries(&b2, rser); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("replayed series differs")
	}
}

func TestNDJSONShape(t *testing.T) {
	var spill bytes.Buffer
	rec := NewRecorder("d", Config{Sink: NewNDJSONSink(&spill, "d", 0)})
	feedRecorder(rec)
	lines := strings.Split(strings.TrimRight(spill.String(), "\n"), "\n")
	if !strings.HasPrefix(lines[0], `{"obsNDJSON":1`) {
		t.Fatalf("header = %q", lines[0])
	}
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, `{"fin":`) || !strings.Contains(last, `"endCycle":125`) {
		t.Fatalf("terminal = %q", last)
	}
	var ffs int
	for _, l := range lines[1 : len(lines)-1] {
		if !strings.HasPrefix(l, `{"e":`) && !strings.HasPrefix(l, `{"s":`) {
			t.Fatalf("unexpected line %q", l)
		}
		if strings.Contains(l, `"ff-jump"`) {
			ffs++
		}
	}
	if ffs != 1 {
		t.Fatalf("ff-jump lines = %d", ffs)
	}
	if strings.Contains(spill.String(), `"late"`) {
		t.Fatal("post-finalize event reached the sink")
	}
}

func TestReplayNDJSONErrors(t *testing.T) {
	var spill bytes.Buffer
	rec := NewRecorder("d", Config{Sink: NewNDJSONSink(&spill, "d", 0)})
	feedRecorder(rec)
	full := spill.String()
	lines := strings.SplitAfter(full, "\n")

	cases := map[string]string{
		"empty":          "",
		"bad version":    strings.Replace(full, `"obsNDJSON":1`, `"obsNDJSON":9`, 1),
		"truncated":      strings.Join(lines[:len(lines)-2], ""), // missing fin
		"after terminal": full + lines[1],
		"payloadless":    lines[0] + "{}\n" + strings.Join(lines[1:], ""),
		"not json":       lines[0] + "garbage\n" + strings.Join(lines[1:], ""),
		"missing header": strings.Join(lines[1:], ""),
	}
	for name, in := range cases {
		if _, _, err := ReplayNDJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

type errWriter struct{ n, calls int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.n <= 0 {
		return 0, bytes.ErrTooLarge
	}
	w.n--
	return len(p), nil
}

func TestNDJSONSinkStickyError(t *testing.T) {
	w := &errWriter{n: 0}
	sink := NewNDJSONSink(w, "d", 0)
	ev := Event{Kind: KindLaunch, Track: "unit:k", Name: "go", Instant: true}
	for i := 0; i < 1000; i++ {
		sink.Event(ev)
	}
	if sink.err == nil {
		t.Fatal("write error not recorded")
	}
	// Quiet after the first error: later lines are not written.
	if w.calls != 1 {
		t.Fatalf("sink wrote %d more times after its write error", w.calls-1)
	}
	if err := sink.Finalize(5); err == nil {
		t.Fatal("write error not surfaced at Finalize")
	}
}
