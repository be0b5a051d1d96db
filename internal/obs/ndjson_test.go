package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// oneSegmentSpill imports stream — a complete header/payload/fin stream — into
// dir as a complete spill of exactly one sealed segment: the header's design
// and sampling period configure a SegmentSink, every payload line is fed
// through it in order, and the fin line's cycle finalizes it.
func oneSegmentSpill(t testing.TB, dir string, stream []byte) {
	t.Helper()
	r := ndjsonReader{data: stream}
	if err := r.header(); err != nil {
		t.Fatal(err)
	}
	sink, err := NewSegmentSink(SegmentConfig{Dir: dir, Design: r.hdr.Design, SampleEvery: r.hdr.SampleEvery,
		MaxLines: 1 << 30, MaxBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.feed(sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Finalize(r.fin.EndCycle); err != nil {
		t.Fatal(err)
	}
}

// TestStreamReadersAgreeOnMalformedLines runs lines that are not exactly one
// event, sample or fin payload through every reader that meets the stream
// format: the single-file replay and its feed stage must refuse the line, and
// a sealed segment holding the stream in place of a container is refused as
// corrupt, never parsed as lines. An incomplete spill's open .part holding it
// is not read at all: recovery regenerates the unsealed tail instead.
func TestStreamReadersAgreeOnMalformedLines(t *testing.T) {
	const hdr = `{"obsNDJSON":1,"design":"d"}` + "\n"
	cases := map[string]struct{ bad, fin string }{
		"two payloads": {
			bad: `{"e":{"kind":"launch","track":"unit:k","name":"launch","start":0,"end":0,"instant":true},"fin":{"endCycle":7}}`,
			fin: `{"fin":{"endCycle":9}}`,
		},
		"no payload": {bad: `{}`, fin: `{"fin":{"endCycle":9}}`},
	}
	for name, c := range cases {
		stream := []byte(hdr + c.bad + "\n" + c.fin + "\n")
		t.Run(name+"/ReplayNDJSON", func(t *testing.T) {
			_, _, err := ReplayNDJSON(bytes.NewReader(stream))
			if _, ok := AsCorrupt(err); !ok {
				t.Fatalf("err = %v, want a *CorruptSegmentError", err)
			}
		})
		t.Run(name+"/Feed", func(t *testing.T) {
			r := ndjsonReader{data: stream}
			if err := r.header(); err != nil {
				t.Fatal(err)
			}
			err := r.feed(NewRecorder("d", Config{}))
			if _, ok := AsCorrupt(err); !ok {
				t.Fatalf("err = %v, want a *CorruptSegmentError", err)
			}
		})
		t.Run(name+"/sealed segment", func(t *testing.T) {
			dir := t.TempDir()
			// The stream sits where the only sealed segment's container
			// belongs, fingerprinted so the manifest's checksum passes.
			seg := SegmentInfo{File: segmentName(1), Lines: 1, Bytes: int64(len(c.bad)),
				FileBytes: int64(len(stream)), CRC32C: Checksum(stream)}
			man, err := json.Marshal(&Manifest{Version: manifestVersion, Design: "d",
				Complete: true, EndCycle: 9, Segments: []SegmentInfo{seg}})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, seg.File), stream, 0o666); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o666); err != nil {
				t.Fatal(err)
			}
			_, err = LoadSegments(dir)
			if _, ok := AsCorrupt(err); !ok {
				t.Fatalf("err = %v, want a *CorruptSegmentError", err)
			}
		})
		t.Run(name+"/open part", func(t *testing.T) {
			dir := t.TempDir()
			// A sink that crashed before sealing anything: the manifest lists no
			// segment, and the stream is its open .part, which nothing reads.
			if _, err := NewSegmentSink(SegmentConfig{Dir: dir, Design: "d"}); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)+".part"), stream, 0o666); err != nil {
				t.Fatal(err)
			}
			log, err := LoadSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(log.Lines) != 0 {
				t.Fatalf("loaded %d records from an unsealed .part", len(log.Lines))
			}
		})
	}
}
