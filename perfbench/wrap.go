package main

import (
	"os"

	"oclfpga/internal/obs"
)

// The benchmark's two seams into the durable-spill write path: an obs.Sink
// decorator in front of the SegmentSink and an obs.VFS/obs.File decorator
// passed as SegmentConfig.FS. Both forward every call unchanged. The VFS
// decorator always keeps exact counts (the determinism guard compares them
// across ops and runs); the clocks run only when a ledger is attached.

// vfsCounts are exact per-op counts of what the spill writer asked the
// filesystem to do.
type vfsCounts struct {
	Fsyncs       int64 `json:"fsyncs"`
	Renames      int64 `json:"renames"`
	FilesCreated int64 `json:"files_created"`
	WriteFiles   int64 `json:"writefiles"`
	SegmentBytes int64 `json:"segment_bytes"` // through File.Write: segment payload
	SidecarBytes int64 `json:"sidecar_bytes"` // through WriteFile: sidecars and manifest rewrites
}

type countingFS struct {
	inner obs.VFS
	l     *ledger
	n     vfsCounts
}

func newCountingFS(l *ledger) *countingFS { return &countingFS{inner: obs.OSFS(), l: l} }

func (c *countingFS) Create(name string) (obs.File, error) {
	t := c.l.fold("vfs.create")
	f, err := c.inner.Create(name)
	c.l.unfold(t)
	if err != nil {
		return nil, err
	}
	c.n.FilesCreated++
	return &countingFile{inner: f, fs: c}, nil
}

func (c *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	t := c.l.fold("vfs.writefile")
	err := c.inner.WriteFile(name, data, perm)
	c.l.unfold(t)
	c.n.WriteFiles++
	c.n.SidecarBytes += int64(len(data))
	return err
}

func (c *countingFS) Rename(oldname, newname string) error {
	t := c.l.fold("vfs.rename")
	err := c.inner.Rename(oldname, newname)
	c.l.unfold(t)
	c.n.Renames++
	return err
}

func (c *countingFS) Remove(name string) error { return c.inner.Remove(name) }

func (c *countingFS) MkdirAll(path string, perm os.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}

func (c *countingFS) ReadFile(name string) ([]byte, error) { return c.inner.ReadFile(name) }

type countingFile struct {
	inner obs.File
	fs    *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	t := f.fs.l.fold("vfs.write")
	n, err := f.inner.Write(p)
	f.fs.l.unfold(t)
	f.fs.n.SegmentBytes += int64(n)
	return n, err
}

func (f *countingFile) Sync() error {
	t := f.fs.l.fold("vfs.fsync")
	err := f.inner.Sync()
	f.fs.l.unfold(t)
	f.fs.n.Fsyncs++
	return err
}

func (f *countingFile) Close() error { return f.inner.Close() }

// timingSink times every call into the sink it wraps. Per-event calls fold
// into one span per op; Finalize is a plain span, bracketed by before and
// after so the caller can close the span that was open while the machine
// ran and open the one that lasts until the supervisor's Done.
type timingSink struct {
	inner         obs.Sink
	l             *ledger
	before, after func()
}

func (s *timingSink) Event(e obs.Event) {
	t := s.l.fold("sink.event")
	s.inner.Event(e)
	s.l.unfold(t)
}

func (s *timingSink) Sample(sm obs.Sample) {
	t := s.l.fold("sink.sample")
	s.inner.Sample(sm)
	s.l.unfold(t)
}

func (s *timingSink) Finalize(endCycle int64) error {
	s.before()
	s.l.begin("sink.finalize")
	err := s.inner.Finalize(endCycle)
	s.l.end()
	s.after()
	return err
}
