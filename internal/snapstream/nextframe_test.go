package snapstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// withLength returns a copy of wire with its 64-bit length word set to n.
func withLength(wire []byte, n uint64) []byte {
	b := bytes.Clone(wire)
	binary.BigEndian.PutUint64(b[16:24], n)
	return b
}

// A length word near 2^64 must read as a frame longer than the buffer, not
// wrap the end offset around and panic on the payload slice.
func TestNextFrameRejectsHugeLength(t *testing.T) {
	two := AppendFrame(EncodeFrame(Frame{Version: 1, Payload: []byte("first")}), Frame{Version: 2, Payload: []byte("second")})
	for _, n := range []uint64{1<<64 - 1, 1<<64 - 10, 1<<64 - 28, 1 << 63, uint64(len(two))} {
		_, _, err := NextFrame(Magic, "huge", withLength(two, n))
		if !errors.Is(err, ErrTornFrame) {
			t.Errorf("length %#x: err = %v, want ErrTornFrame", n, err)
		}
		if _, err := DecodeFrame("huge", withLength(two, n)); err == nil {
			t.Errorf("DecodeFrame accepted length %#x", n)
		}
	}
	// Header complete but shorter than header plus CRC.
	if _, _, err := NextFrame(Magic, "short", two[:26]); !errors.Is(err, ErrTornFrame) {
		t.Errorf("26-byte buffer: err = %v, want ErrTornFrame", err)
	}
}

func TestNextFrameWalksConcatenatedFrames(t *testing.T) {
	want := []Frame{{Version: 1, Payload: []byte("a")}, {Version: 2}, {Version: 3, Payload: []byte("ccc")}}
	var wire []byte
	for _, f := range want {
		wire = AppendFrame(wire, f)
	}
	for i, w := range want {
		f, rest, err := NextFrame(Magic, "walk", wire)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Version != w.Version || !bytes.Equal(f.Payload, w.Payload) {
			t.Fatalf("frame %d = %+v, want %+v", i, f, w)
		}
		wire = rest
	}
	if len(wire) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(wire))
	}
}

// FuzzNextFrame checks that any byte sequence either decodes into a frame
// whose re-encoding is exactly the bytes consumed, or returns an error; it
// never panics.
func FuzzNextFrame(f *testing.F) {
	one := EncodeFrame(Frame{Version: 7, Payload: []byte("payload bytes")})
	f.Add(one)
	f.Add(AppendFrame(bytes.Clone(one), Frame{Version: 8}))
	f.Add(EncodeFrame(Frame{Version: 1}))
	f.Add(one[:len(one)-1])
	f.Add(withLength(one, 1<<64-1))
	f.Add(withLength(one, 1<<64-10))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, rest, err := NextFrame(Magic, "fuzz", b)
		if err != nil {
			return
		}
		used := b[:len(b)-len(rest)]
		if !bytes.Equal(EncodeFrame(fr), used) {
			t.Fatalf("frame %+v re-encodes differently from the %d bytes consumed", fr, len(used))
		}
	})
}
