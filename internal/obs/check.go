package obs

import (
	"os"
)

// SegmentCheck is one sealed segment's integrity status — the row
// `obscheck -spill-dir` prints and the unit scrub.Scan classifies from.
type SegmentCheck struct {
	File string `json:"file"`
	// ChecksumState is "ok" (fingerprint matched), "bad" (mismatch),
	// "unverified" (manifest predates checksumming), or "missing" (no file).
	ChecksumState string `json:"checksum"`
	// Lines/Events/Samples are the parsed payload counts (zero when the
	// segment was unreadable).
	Lines   int `json:"lines"`
	Events  int `json:"events"`
	Samples int `json:"samples"`
	// SidecarState is "ok", "stale", or "missing" for the .flat sidecar.
	SidecarState string `json:"sidecar"`
	// Err is the typed corruption verdict, nil when healthy.
	Err error `json:"-"`
	// Error is Err's text for JSON consumers.
	Error string `json:"error,omitempty"`
}

// CheckSegment verifies one sealed segment end to end: fingerprint, header,
// line structure, line counts, fin placement, and sidecar freshness. It
// never modifies the directory.
func CheckSegment(dir string, man *Manifest, idx int) SegmentCheck {
	seg := man.Segments[idx]
	fp, events, samples, err := readSealed(dir, seg, sealedParse(man, idx), nil)
	c := SegmentCheck{File: seg.File, ChecksumState: fp, Err: err}
	if err != nil {
		c.Error = err.Error()
		if fp == "missing" {
			return c
		}
	} else {
		c.Lines, c.Events, c.Samples = events+samples, events, samples
	}
	c.SidecarState = "ok"
	if _, err := readSegFlat(dir, seg, nil); os.IsNotExist(err) {
		c.SidecarState = "missing"
	} else if err != nil {
		c.SidecarState = "stale"
	}
	return c
}
