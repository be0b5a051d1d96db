package obs

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC32C polynomial table every spill checksum uses:
// hardware-accelerated on amd64/arm64, so verification rides along with the
// read for well under the gated 2% overhead.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the spill integrity checksum (CRC32C) over data.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// CorruptSegmentError is the typed verdict every integrity check produces: a
// damaged spill artifact surfaces as which file, where, what was expected and
// what was found — never as a wrong answer. The Reason string is the damage
// classification the scrubber keys its repair decision on.
type CorruptSegmentError struct {
	// Dir is the spill directory; File the damaged artifact within it.
	Dir  string
	File string
	// Offset is the byte offset where the damage was detected; -1 when the
	// damage has no single position (e.g. a whole-file checksum mismatch
	// reports offset 0, a missing file -1).
	Offset int64
	// Reason classifies the damage: "checksum" (bit rot), "truncated",
	// "missing", "garbage" (an undecodable container), "structure"
	// (decodable but disagreeing with the manifest), "repair-divergence" (a
	// re-execution that did not reproduce the fingerprint).
	Reason string
	// Expected/Got describe the failed check (checksums, counts, sizes).
	Expected string
	Got      string
}

func (e *CorruptSegmentError) Error() string {
	msg := fmt.Sprintf("obs: corrupt segment %s", e.File)
	if e.Dir != "" {
		msg = fmt.Sprintf("obs: corrupt segment %s/%s", e.Dir, e.File)
	}
	if e.Offset >= 0 {
		msg += fmt.Sprintf(" at byte %d", e.Offset)
	}
	msg += ": " + e.Reason
	if e.Expected != "" || e.Got != "" {
		msg += fmt.Sprintf(" (expected %s, got %s)", e.Expected, e.Got)
	}
	return msg
}

// AsCorrupt unwraps err to its CorruptSegmentError, if it carries one.
func AsCorrupt(err error) (*CorruptSegmentError, bool) {
	var ce *CorruptSegmentError
	if errors.As(err, &ce) {
		return ce, true
	}
	return nil, false
}

func corrupt(dir, file string, off int64, reason, expected, got string) *CorruptSegmentError {
	return &CorruptSegmentError{Dir: dir, File: file, Offset: off, Reason: reason, Expected: expected, Got: got}
}
