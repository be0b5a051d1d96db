package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// oneSegmentSpill writes stream — a complete header/payload/fin stream — into
// dir as a complete spill of exactly one sealed segment. Every manifest field
// comes from the bytes: the header line's design and sampling period, the fin
// line's cycle, the payload line and byte counts, the file length and its
// CRC32C.
func oneSegmentSpill(t testing.TB, dir string, stream []byte) {
	t.Helper()
	lines := bytes.SplitAfter(stream, []byte("\n"))
	if len(lines) < 3 || len(lines[len(lines)-1]) != 0 {
		t.Fatalf("not a complete stream: %q", stream)
	}
	lines = lines[:len(lines)-1]
	var hdr struct {
		Design      string `json:"design"`
		SampleEvery int64  `json:"sampleEvery"`
	}
	var fin struct {
		Fin struct {
			EndCycle int64 `json:"endCycle"`
		} `json:"fin"`
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &fin); err != nil {
		t.Fatal(err)
	}
	payload := lines[1 : len(lines)-1]
	seg := SegmentInfo{File: segmentName(1), Lines: len(payload),
		FileBytes: int64(len(stream)), CRC32C: Checksum(stream)}
	for _, l := range payload {
		seg.Bytes += int64(len(l))
	}
	man, err := json.Marshal(&Manifest{Version: 1, Design: hdr.Design, SampleEvery: hdr.SampleEvery,
		Complete: true, EndCycle: fin.Fin.EndCycle, Segments: []SegmentInfo{seg}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, seg.File), stream, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestStreamReadersAgreeOnMalformedLines runs lines that are not exactly one
// event, sample or fin payload through every reader of the stream format:
// the single-file replay, the sealed-segment loader and Feed. Each must
// refuse the line. An incomplete spill's open .part holding it is not read at
// all: recovery regenerates the unsealed tail instead.
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
			if _, _, err := ReplayNDJSON(bytes.NewReader(stream)); err == nil {
				t.Fatal("accepted")
			}
		})
		t.Run(name+"/sealed segment", func(t *testing.T) {
			dir := t.TempDir()
			oneSegmentSpill(t, dir, stream)
			_, err := LoadSegments(dir)
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
				t.Fatalf("loaded %d lines from an unsealed .part", len(log.Lines))
			}
		})
		t.Run(name+"/Feed", func(t *testing.T) {
			log := &SegmentLog{Lines: [][]byte{[]byte(c.bad)}}
			err := log.Feed(NewRecorder("d", Config{}))
			if _, ok := AsCorrupt(err); !ok {
				t.Fatalf("err = %v, want a *CorruptSegmentError", err)
			}
		})
	}
}
