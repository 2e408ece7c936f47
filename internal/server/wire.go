// Package server implements spotd's serving layer: a long-running
// daemon that ingests batched points for one or more tenant detectors
// over a length-prefixed binary TCP protocol and wraps every ingest
// path in robustness machinery — a bounded admission queue with typed
// backpressure, per-request deadlines, panic containment per
// connection, periodic crash-safe checkpointing through
// snapshot.Keeper, automatic newest-verifiable-generation recovery on
// startup, live snapshot migration between hosts, and graceful drain
// on shutdown.
//
// Concurrency model: the stream.Detector is single-goroutine by
// contract, so each tenant owns exactly one worker goroutine that is
// the sole driver of its detector. Connections are handled
// concurrently; an ingest request is admitted into the tenant's
// bounded queue (or shed immediately when full — the daemon never
// buffers without bound) and the worker replies through a per-request
// channel. Checkpoints, migration snapshots and restores run on the
// same worker goroutine, so they always observe the detector at a
// batch boundary with its shard workers idle — the exact quiescence
// Snapshot requires — while other tenants keep ingesting.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Frame layout: u32 little-endian payload length (including the type
// byte), u8 message type, payload. The length cap bounds what a
// malformed or adversarial peer can make the daemon allocate.
const (
	// MaxFrame bounds one frame's declared length. Snapshot transfers
	// (migration) ride the same framing, so the cap is sized for
	// checkpoints, not just batches.
	MaxFrame = 64 << 20
	// MaxBatchPoints bounds the points of one ingest request; larger
	// streams chunk client-side. Keeps a single request's admission
	// cost predictable.
	MaxBatchPoints = 65536
	// maxNameLen bounds a tenant name on the wire.
	maxNameLen = 255
	// frameChunk is the first allocation for a frame's payload. A frame
	// up to this size is read into one buffer of its exact length; a
	// larger one doubles its buffer as bytes arrive, so what a frame
	// pins tracks what the peer actually sent, never what its header
	// declared.
	frameChunk = 64 << 10
)

// Request message types.
const (
	msgIngest     uint8 = 0x01
	msgStats      uint8 = 0x02
	msgSnapshot   uint8 = 0x03 // migrate out: stream the tenant's snapshot
	msgRestore    uint8 = 0x04 // migrate in: replace tenant state from a snapshot
	msgCheckpoint uint8 = 0x05 // force a durable checkpoint now
	msgPing       uint8 = 0x06 // heartbeat; the reply carries server identity/role
	msgReplicate  uint8 = 0x07 // primary → standby: ship one snapshot generation
	msgPromote    uint8 = 0x08 // flip a standby to primary (idempotent on a primary)
)

// Response message types.
const (
	msgVerdicts uint8 = 0x81
	msgStatsRep uint8 = 0x82
	msgSnapRep  uint8 = 0x83
	msgOK       uint8 = 0x84
	msgError    uint8 = 0x85
)

// Wire error codes: the retry contract a client programs against.
// Shed and Deadline are retryable (nothing was applied); Draining
// means retry against another replica; NotPrimary means fail over to
// the replica currently holding the primary role; BadRequest,
// UnknownTenant and Conflict are caller bugs; Stale and NotStandby are
// the replication layer's divergence/mis-wiring refusals; Internal is
// a contained server fault.
const (
	CodeBadRequest    uint8 = 1
	CodeUnknownTenant uint8 = 2
	CodeShed          uint8 = 3
	CodeDeadline      uint8 = 4
	CodeDraining      uint8 = 5
	CodeInternal      uint8 = 6
	CodeConflict      uint8 = 7
	CodeNotPrimary    uint8 = 8
	CodeNotStandby    uint8 = 9
	CodeStale         uint8 = 10
)

// Typed client-side errors, one per wire code a caller branches on.
var (
	// ErrShed marks an ingest rejected by admission control: the
	// tenant's queue was full. Nothing was applied; back off and retry.
	ErrShed = errors.New("server: overloaded, batch shed")
	// ErrDeadline marks a request whose deadline budget expired before
	// the tenant worker reached it. Nothing was applied.
	ErrDeadline = errors.New("server: deadline exceeded before processing")
	// ErrDraining marks a request refused because the server is
	// shutting down.
	ErrDraining = errors.New("server: draining")
	// ErrUnknownTenant marks a request naming a tenant the server does
	// not host.
	ErrUnknownTenant = errors.New("server: unknown tenant")
	// ErrBadRequest marks a malformed request (frame, shape, or a
	// batch violating the detector's input contract).
	ErrBadRequest = errors.New("server: bad request")
	// ErrConflict marks a restore whose snapshot does not match the
	// tenant's configuration.
	ErrConflict = errors.New("server: snapshot/config conflict")
	// ErrNotPrimary marks an ingest refused because the server holds
	// the standby role. Nothing was applied; fail over to the primary.
	ErrNotPrimary = errors.New("server: standby does not serve ingest")
	// ErrNotStandby marks a replication push refused because the target
	// holds the primary role — shipping into a primary is mis-wiring
	// (or split brain), never applied.
	ErrNotStandby = errors.New("server: primary does not accept replication")
	// ErrStaleGeneration marks a replication push whose generation
	// regresses one the standby already holds from the same primary
	// incarnation — the divergence signal. Nothing was applied.
	ErrStaleGeneration = errors.New("server: stale replication generation")
	// ErrInternal marks a contained server-side fault (e.g. a panic
	// caught by the connection or worker containment).
	ErrInternal = errors.New("server: internal error")
	// ErrTimeout marks a client-side I/O deadline expiring — dialing,
	// writing the request, or waiting for the reply. The connection is
	// closed; whether the request was applied is unknown unless it was
	// never written.
	ErrTimeout = errors.New("server: i/o timeout")
)

// codeErr maps a wire code to its typed error.
func codeErr(code uint8, msg string) error {
	var base error
	switch code {
	case CodeBadRequest:
		base = ErrBadRequest
	case CodeUnknownTenant:
		base = ErrUnknownTenant
	case CodeShed:
		base = ErrShed
	case CodeDeadline:
		base = ErrDeadline
	case CodeDraining:
		base = ErrDraining
	case CodeConflict:
		base = ErrConflict
	case CodeNotPrimary:
		base = ErrNotPrimary
	case CodeNotStandby:
		base = ErrNotStandby
	case CodeStale:
		base = ErrStaleGeneration
	default:
		base = ErrInternal
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}

// writeFrame emits one frame: length, type, payload. The payload may
// be split across two slices so callers can prepend a small header to
// a large body without copying it.
func writeFrame(w io.Writer, typ uint8, head, body []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(1+len(head)+len(body)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(head) > 0 {
		if _, err := w.Write(head); err != nil {
			return err
		}
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, enforcing the length cap. The returned
// payload excludes the type byte. The payload buffer grows with the
// bytes received (see frameChunk), so a peer that declares a large
// frame and then stalls or hangs up holds at most twice what it sent.
// A frame cut short anywhere after its first byte — mid-header, or
// with its header complete and its payload short — returns
// io.ErrUnexpectedEOF; io.EOF means the stream ended cleanly between
// frames.
func readFrame(r io.Reader) (uint8, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: frame length %d", ErrBadRequest, n)
	}
	want := int(n - 1)
	payload := make([]byte, min(want, frameChunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, payload[got:])
		got += k
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		if got == want {
			return hdr[4], payload, nil
		}
		grown := make([]byte, min(want, 2*got))
		copy(grown, payload)
		payload = grown
	}
}

// wireBuf is a cursor over a frame payload with the same sticky-error
// discipline as the snapshot codec's Section: reads past the end arm
// the error and return zeros, and the caller validates once.
type wireBuf struct {
	data []byte
	off  int
	err  error
}

func (b *wireBuf) take(n int) []byte {
	if b.err != nil {
		return nil
	}
	if b.off+n > len(b.data) || b.off+n < b.off {
		b.err = fmt.Errorf("%w: truncated payload", ErrBadRequest)
		return nil
	}
	s := b.data[b.off : b.off+n]
	b.off += n
	return s
}

func (b *wireBuf) u8() uint8 {
	if s := b.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (b *wireBuf) u16() uint16 {
	if s := b.take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (b *wireBuf) u32() uint32 {
	if s := b.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (b *wireBuf) u64() uint64 {
	if s := b.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// name reads a u8-length-prefixed tenant name.
func (b *wireBuf) name() string {
	n := int(b.u8())
	return string(b.take(n))
}

// rest returns the unread remainder of the payload.
func (b *wireBuf) rest() []byte {
	s := b.data[b.off:]
	b.off = len(b.data)
	return s
}

// f64s decodes n little-endian float64s into dst (len(dst) == n).
func (b *wireBuf) f64s(dst []float64) {
	s := b.take(8 * len(dst))
	if s == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[8*i:]))
	}
}

// appendName appends a u8-length-prefixed tenant name.
func appendName(dst []byte, name string) ([]byte, error) {
	if len(name) == 0 || len(name) > maxNameLen {
		return dst, fmt.Errorf("%w: tenant name length %d", ErrBadRequest, len(name))
	}
	dst = append(dst, uint8(len(name)))
	return append(dst, name...), nil
}

// appendF64s appends little-endian float64 bit patterns.
func appendF64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// errFrame encodes an error response payload.
func errFrame(code uint8, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	p := make([]byte, 0, 3+len(msg))
	p = append(p, code)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(msg)))
	return append(p, msg...)
}

// decodeError decodes an error response payload into its typed error.
func decodeError(payload []byte) error {
	b := wireBuf{data: payload}
	code := b.u8()
	n := int(b.u16())
	msg := string(b.take(n))
	if b.err != nil {
		return fmt.Errorf("%w: malformed error frame", ErrInternal)
	}
	return codeErr(code, msg)
}
