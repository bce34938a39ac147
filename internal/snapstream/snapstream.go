// Package snapstream is the single codec and transport layer for moving
// versioned snapshot frames between deployments. One frame format — the
// CDMLCKP1 checkpoint frame introduced by the crash-durability layer —
// now carries every snapshot movement in the system: in-process publish
// hand-off, durable checkpoint files, HTTP checkpoint/restore, and
// primary→replica shipping. A Source yields frames (a deployment's
// published snapshot, a checkpoint directory, a remote primary polled
// over HTTP); a Sink consumes them (an atomic in-process swap, a durable
// file writer). Composing one Source with one Sink is a replication
// path; the torn-frame and CRC validation that hardened checkpoint
// recovery hardens every other transport for free.
//
// Frame layout (unchanged from the on-disk checkpoint format):
//
//	magic   [8]byte  "CDMLCKP1"
//	version uint64   big-endian snapshot version
//	length  uint64   big-endian payload byte count
//	payload []byte   Snapshot.encodeTo output (gob streams)
//	crc     uint32   big-endian IEEE CRC-32 of payload
//
// A torn transfer — crash mid-write, truncated HTTP body, bit rot —
// fails the length or CRC check and the consumer keeps its last good
// snapshot.
package snapstream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic is the 8-byte frame preamble shared with the checkpoint files.
const Magic = "CDMLCKP1"

// frameOverhead is the fixed byte cost around a payload: magic + version +
// length header plus the trailing CRC.
const frameOverhead = len(Magic) + 8 + 8 + 4

// ErrNoFrame reports that a source holds no frame at all — an empty
// checkpoint directory on a cold start, not a failure.
var ErrNoFrame = errors.New("snapstream: no frame available")

// ErrTornFrame reports a frame cut short mid-write: the buffer ends before
// the header, payload, or CRC completes. Sequential readers (the ingest
// log) treat a torn frame at the tail of the active file as the crash
// point and truncate there; a torn frame anywhere else is corruption.
var ErrTornFrame = errors.New("snapstream: torn frame")

// Frame is one versioned, encoded snapshot. The payload is the gob stream
// produced by the snapshot encoder; snapstream treats it as opaque bytes.
type Frame struct {
	// Version is the snapshot version (ticks = version-1 for a live
	// deployment). Monotonically increasing per deployment lineage.
	Version uint64
	// Payload is the encoded snapshot body.
	Payload []byte
}

// Source yields versioned snapshot frames. Latest returns the newest frame
// strictly newer than since; ok is false (with a zero Frame and nil error)
// when nothing newer exists — the polling idle case, not an error. A
// failing source returns err.
type Source interface {
	Latest(ctx context.Context, since uint64) (f Frame, ok bool, err error)
}

// Sink consumes snapshot frames. Apply either installs the frame
// atomically or rejects it leaving prior state untouched — a half-applied
// frame is never observable.
type Sink interface {
	Apply(f Frame) error
}

// EncodedLen returns the full wire length of a frame.
func EncodedLen(f Frame) int {
	return frameOverhead + len(f.Payload)
}

// AppendFrame appends the wire encoding of f to dst and returns the
// extended slice.
func AppendFrame(dst []byte, f Frame) []byte {
	return AppendFrameMagic(dst, Magic, f)
}

// AppendFrameMagic appends the wire encoding of f under a caller-chosen
// 8-byte magic. The frame layout is otherwise identical to the checkpoint
// frame; other record streams (the write-ahead ingest log) reuse the
// codec with their own preamble so files cannot masquerade across formats.
func AppendFrameMagic(dst []byte, magic string, f Frame) []byte {
	dst = append(dst, magic...)
	dst = binary.BigEndian.AppendUint64(dst, f.Version)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(f.Payload))
}

// NextFrame decodes the first frame in b under the given 8-byte magic and
// returns it together with the remaining bytes — the sequential-scan
// counterpart of DecodeFrame for files holding many concatenated frames.
// The returned payload aliases b. A buffer ending mid-frame reports
// ErrTornFrame (wrapped, with the byte position); a wrong magic or CRC
// mismatch is a plain corruption error. name labels the stream's origin
// in error messages.
func NextFrame(magic, name string, b []byte) (Frame, []byte, error) {
	const headerLen = 24 // magic + version + length
	if len(b) < headerLen {
		return Frame{}, nil, fmt.Errorf("snapstream: %s: %w (%d header bytes of %d)",
			name, ErrTornFrame, len(b), headerLen)
	}
	if string(b[:len(magic)]) != magic {
		return Frame{}, nil, fmt.Errorf("snapstream: %s: bad frame magic %q", name, b[:len(magic)])
	}
	version := binary.BigEndian.Uint64(b[8:16])
	n := binary.BigEndian.Uint64(b[16:24])
	// Compare n against the bytes left before adding to it: a length word
	// near 2^64 would wrap headerLen+n+4 around to a small total.
	if avail := len(b) - headerLen - 4; avail < 0 || n > uint64(avail) {
		return Frame{}, nil, fmt.Errorf("snapstream: %s: %w (have %d payload bytes, header says %d)",
			name, ErrTornFrame, len(b)-headerLen, n)
	}
	end := headerLen + int(n)
	payload := b[headerLen:end]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(b[end:]); got != want {
		return Frame{}, nil, fmt.Errorf("snapstream: %s: frame CRC mismatch (corrupted payload)", name)
	}
	return Frame{Version: version, Payload: payload}, b[end+4:], nil
}

// EncodeFrame returns the full wire encoding of f.
func EncodeFrame(f Frame) []byte {
	return AppendFrame(make([]byte, 0, EncodedLen(f)), f)
}

// DecodeFrame validates a wire-encoded frame (magic, length, CRC) and
// returns its version and payload. name labels the frame's origin (a file
// base name, a primary URL) in error messages. The returned payload
// aliases b. Torn or corrupted frames are reported as errors without any
// partial result.
func DecodeFrame(name string, b []byte) (Frame, error) {
	if len(b) < len(Magic)+20 || string(b[:len(Magic)]) != Magic {
		return Frame{}, fmt.Errorf("snapstream: %s: not a checkpoint frame", name)
	}
	version := binary.BigEndian.Uint64(b[8:16])
	n := binary.BigEndian.Uint64(b[16:24])
	if uint64(len(b)) != 24+n+4 {
		return Frame{}, fmt.Errorf("snapstream: %s: torn frame (have %d payload bytes, header says %d)",
			name, len(b)-frameOverhead, n)
	}
	payload := b[24 : 24+n]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(b[24+n:]); got != want {
		return Frame{}, fmt.Errorf("snapstream: %s: frame CRC mismatch (corrupted payload)", name)
	}
	return Frame{Version: version, Payload: payload}, nil
}
