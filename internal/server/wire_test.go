package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// frame encodes one wire frame: the u32 length (type byte included),
// the type byte and the payload.
func frame(typ uint8, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)+1))
	b = append(b, typ)
	return append(b, payload...)
}

// TestReadFrameAllocatesWhatArrives pins the trust-boundary bound: a
// header declaring a MaxFrame payload followed by 16 bytes and EOF
// must fail with io.ErrUnexpectedEOF without allocating anything near
// the declared 64 MiB — the buffer grows with the bytes received.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	in := binary.LittleEndian.AppendUint32(nil, MaxFrame)
	in = append(in, msgIngest)
	in = append(in, make([]byte, 16)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated MaxFrame frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("truncated MaxFrame frame allocated %d bytes, want < 1 MiB", got)
	}
}

// TestReadFrameLarge reads frames around and well past the first
// chunk, so the growth path returns exactly the bytes sent.
func TestReadFrameLarge(t *testing.T) {
	for _, size := range []int{0, 1, frameChunk - 1, frameChunk, frameChunk + 1, 5*frameChunk + 3} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		typ, got, err := readFrame(bytes.NewReader(frame(msgRestore, payload)))
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if typ != msgRestore || !bytes.Equal(got, payload) {
			t.Fatalf("size %d: frame did not round-trip", size)
		}
		// The same frame cut one byte short, after at least one payload
		// byte, fails as a short frame.
		if size > 1 {
			in := frame(msgRestore, payload)
			if _, _, err := readFrame(bytes.NewReader(in[:len(in)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("size %d cut short: err = %v, want io.ErrUnexpectedEOF", size, err)
			}
		}
	}
}

// FuzzReadFrame drives the wire decoder, the daemon's only parser of
// untrusted network bytes, with arbitrary input: it must never panic,
// every error must be the typed ErrBadRequest or an io EOF error, and
// a returned frame must carry exactly the declared payload.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame(msgPing, nil))
	f.Add(frame(msgIngest, []byte("tenant and points")))
	f.Add(frame(msgStats, []byte{1, 2, 3})[:6])
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, MaxFrame+1), msgIngest))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 0), msgIngest))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		declared := binary.LittleEndian.Uint32(data)
		if uint64(len(payload)) != uint64(declared)-1 {
			t.Fatalf("payload of %d bytes, header declared %d", len(payload), declared-1)
		}
		if typ != data[4] || !bytes.Equal(payload, data[5:5+len(payload)]) {
			t.Fatal("frame does not match its input bytes")
		}
	})
}
