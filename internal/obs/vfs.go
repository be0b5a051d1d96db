package obs

import (
	"io"
	"os"
)

// VFS is the filesystem seam under the durable spill writers. Everything the
// SegmentSink (and a repair's swap) does to disk goes through this
// interface, so the disk-fault chaos suite can inject short writes, ENOSPC,
// fsync failures, and torn renames at any point in the commit protocol and
// assert the directory stays recoverable. The zero value of SegmentConfig.FS
// means the real OS filesystem.
type VFS interface {
	// Create truncates-or-creates name for writing.
	Create(name string) (File, error)
	// WriteFile writes data to name in one shot (the temp-file half of an
	// atomic replace).
	WriteFile(name string, data []byte, perm os.FileMode) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
}

// File is the writable-file subset the spill writers need: buffered bytes go
// through Write, durability through Sync, and the descriptor is released with
// Close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// osFS is the real filesystem.
type osFS struct{}

// OSFS returns the default, real-filesystem VFS.
func OSFS() VFS { return osFS{} }

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Rename(oldname, newname string) error         { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
