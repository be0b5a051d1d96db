package obs

// SegmentCheck is one sealed segment's integrity status — the row
// `obscheck -spill-dir` prints and the unit scrub.Scan classifies from.
type SegmentCheck struct {
	File string `json:"file"`
	// ChecksumState is "ok" (fingerprint matched), "bad" (mismatch), or
	// "missing" (no file).
	ChecksumState string `json:"checksum"`
	// Lines/Events/Samples are the decoded payload counts (zero when the
	// segment was unreadable).
	Lines   int `json:"lines"`
	Events  int `json:"events"`
	Samples int `json:"samples"`
	// Err is the typed corruption verdict, nil when healthy.
	Err error `json:"-"`
	// Error is Err's text for JSON consumers.
	Error string `json:"error,omitempty"`
}

// CheckSegment verifies one sealed segment end to end: fingerprint, every
// container section, the payload count, and the end cycle's placement. It
// never modifies the directory.
func CheckSegment(dir string, man *Manifest, idx int) SegmentCheck {
	fp, fl, err := sealedContainer(dir, man, idx, true)
	c := SegmentCheck{File: man.Segments[idx].File, ChecksumState: fp, Err: err}
	if err != nil {
		c.Error = err.Error()
		return c
	}
	c.Events, c.Samples = len(fl.Records), sampleCount(fl.Samples)
	c.Lines = c.Events + c.Samples
	return c
}
