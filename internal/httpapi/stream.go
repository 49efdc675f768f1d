package httpapi

// The persistent frame stream between the routing front-end and a
// replica: one long-lived TCP connection per backend, opened by
// upgrading GET /v1/stream (Connection: Upgrade, Upgrade: a21-stream,
// answered 101), then carrying many concurrent calls as length-prefixed
// frames. Every frame is
//
//	[length u32][call id u64][type u8] body
//
// (big-endian; length counts the bytes after itself). A request frame's
// body is the QoS envelope — class byte, flags byte (hedge, deadline),
// length-prefixed tenant, the remaining deadline in microseconds when
// the deadline flag is set — followed by an unchanged A21B batch
// request. A reply frame's body is the A21R batch response; an error
// frame answers a whole call with (status, Retry-After ms, message); a
// cancel frame, sent front-end → replica with an empty body, cancels one
// in-flight call. Calls are matched to replies by call ID, so replies
// may arrive in any order.
//
// The decoders follow the batch codec's hardening rules: the frame
// length is clamped against MaxStreamFrame before anything is
// allocated, every inner length against the bytes remaining, and a body
// with trailing bytes is rejected as corrupt. FuzzStreamFrame drives
// them.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/admit"
)

const (
	// StreamPath is the replica endpoint the front-end upgrades to the
	// frame stream.
	StreamPath = "/v1/stream"
	// StreamUpgrade is the Upgrade token of the handshake.
	StreamUpgrade = "a21-stream"
	// MaxStreamInFlight caps the request frames in flight on one stream
	// (the per-host connection limit the HTTP hop had): the front-end
	// waits for a free slot before sending, and a replica stops reading
	// a peer that exceeds it until a slot frees.
	MaxStreamInFlight = 256
	// MaxStreamFrame bounds one frame's length word. A replica never
	// writes a longer reply: it answers that call with a 413 error
	// record instead.
	MaxStreamFrame = 64 << 20
	// MaxStreamEnvelope bounds a request frame's QoS envelope: class and
	// flags bytes, the length-prefixed tenant, the deadline varint.
	MaxStreamEnvelope = 2 + binary.MaxVarintLen64 + admit.MaxTenantLen + binary.MaxVarintLen64
	// MaxStreamRequest bounds a request frame's body: the envelope plus
	// an A21B body held to MaxBatchBytes, the POST /v1/batch cap.
	MaxStreamRequest = MaxStreamEnvelope + MaxBatchBytes
	// StreamHeaderLen is the fixed frame header: length, call ID, type.
	StreamHeaderLen = 4 + 8 + 1
	// StreamWriteTimeout bounds one frame write at either end: a peer
	// that has not read for this long is wedged, and the stream is
	// dropped rather than left to pile up writers.
	StreamWriteTimeout = 10 * time.Second
)

// FrameType is a stream frame's type byte.
type FrameType byte

// Frame types.
const (
	// FrameRequest carries a QoS envelope and an A21B body
	// (front-end → replica).
	FrameRequest FrameType = 0x01
	// FrameReply carries the A21R body answering one request
	// (replica → front-end).
	FrameReply FrameType = 0x02
	// FrameError answers one request as a whole: status, Retry-After,
	// message (replica → front-end).
	FrameError FrameType = 0x03
	// FrameCancel cancels one in-flight request; its body is empty
	// (front-end → replica).
	FrameCancel FrameType = 0x04
)

var frameTypeNames = [...]string{
	FrameRequest: "request",
	FrameReply:   "reply",
	FrameError:   "error",
	FrameCancel:  "cancel",
}

// FrameTypes lists every frame type in type-byte order.
func FrameTypes() []FrameType {
	return []FrameType{FrameRequest, FrameReply, FrameError, FrameCancel}
}

// String names the frame type ("request", "reply", "error", "cancel").
func (t FrameType) String() string {
	if int(t) < len(frameTypeNames) && frameTypeNames[t] != "" {
		return frameTypeNames[t]
	}
	return "frame(" + strconv.Itoa(int(t)) + ")"
}

// ErrStreamFrame marks a stream frame that failed to decode.
var ErrStreamFrame = errors.New("httpapi: bad stream frame")

// ErrStreamTooLarge marks a request frame over its caps: a body past
// MaxStreamRequest (ReadStreamFrame skips it unbuffered and still
// returns the call ID, so the stream stays in step) or an A21B body past
// MaxBatchBytes. It fails only that call, with status 413.
var ErrStreamTooLarge = errors.New("httpapi: stream request too large")

// Envelope flag bits.
const (
	envHedge    = 0x01
	envDeadline = 0x02
)

// StreamEnvelope is a request frame's QoS envelope: what the X-Arch21-*
// headers carry on a plain HTTP request.
type StreamEnvelope struct {
	Class  admit.Class
	Tenant string
	Hedge  bool
	// Deadline is the remaining budget the replica works against; 0
	// means none.
	Deadline time.Duration
}

// EnvelopeFrom captures the context's QoS envelope for one hop, exactly
// as Forward stamps it onto a plain request: the remaining deadline is
// decremented by hopBudget, and a budget that cannot survive the hop is
// an *admit.ShedError with Deadline set — shed at the sender, before
// any frame is written.
func EnvelopeFrom(ctx context.Context, hopBudget time.Duration) (StreamEnvelope, error) {
	env := StreamEnvelope{
		Class:  admit.ClassFrom(ctx),
		Tenant: admit.TenantFrom(ctx),
		Hedge:  IsHedge(ctx),
	}
	remaining, ok, err := hopRemaining(ctx, hopBudget)
	if err != nil {
		return StreamEnvelope{}, err
	}
	if ok {
		// Whole microseconds, rounded up: a positive budget never
		// encodes as "none".
		env.Deadline = remaining.Round(time.Microsecond)
		if env.Deadline < remaining {
			env.Deadline += time.Microsecond
		}
	}
	return env, nil
}

// hopRemaining is the deadline arithmetic Forward and EnvelopeFrom
// share: the budget left after this hop keeps hopBudget, whether the
// context has a deadline at all, and the sender-side shed when the
// budget cannot survive the hop.
func hopRemaining(ctx context.Context, hopBudget time.Duration) (time.Duration, bool, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false, nil
	}
	remaining := time.Until(dl) - hopBudget
	if remaining <= 0 {
		return 0, true, &admit.ShedError{
			Class: admit.ClassFrom(ctx), Deadline: true, RetryAfter: hopBudget}
	}
	return remaining, true, nil
}

// Context layers the envelope onto parent — class, tenant, hedge marker,
// and the deadline as a timeout. The returned cancel must be called
// when the call finishes.
func (env StreamEnvelope) Context(parent context.Context) (context.Context, context.CancelFunc) {
	ctx := admit.WithClass(parent, env.Class)
	if env.Tenant != "" {
		ctx = admit.WithTenant(ctx, env.Tenant)
	}
	if env.Hedge {
		ctx = WithHedge(ctx)
	}
	if env.Deadline > 0 {
		return context.WithTimeout(ctx, env.Deadline)
	}
	return context.WithCancel(ctx)
}

// StreamError is an error frame: a whole call answered with the status,
// message and Retry-After hint a plain HTTP request would have received.
type StreamError struct {
	Status int
	// RetryAfter is the backoff hint (millisecond precision on the
	// wire); 0 means none.
	RetryAfter time.Duration
	Msg        string
}

// RetryAfterHeader renders a backoff hint as a Retry-After header value:
// whole seconds, rounded up, minimum 1.
func RetryAfterHeader(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// BeginStreamFrame appends a frame header whose length word
// EndStreamFrame patches once the body has been appended after it.
func BeginStreamFrame(dst []byte, id uint64, t FrameType) []byte {
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, byte(t))
}

// EndStreamFrame patches the length word of the frame that starts at
// offset start of frame.
func EndStreamFrame(frame []byte, start int) []byte {
	binary.BigEndian.PutUint32(frame[start:], uint32(len(frame)-start-4))
	return frame
}

// AppendStreamRequest appends a complete request frame: header, QoS
// envelope, and the A21B body for entries.
func AppendStreamRequest(dst []byte, id uint64, env StreamEnvelope, entries []BatchEntry) []byte {
	start := len(dst)
	dst = BeginStreamFrame(dst, id, FrameRequest)
	var flags byte
	if env.Hedge {
		flags |= envHedge
	}
	if env.Deadline > 0 {
		flags |= envDeadline
	}
	dst = append(dst, byte(env.Class), flags)
	dst = appendUvarint(dst, uint64(len(env.Tenant)))
	dst = append(dst, env.Tenant...)
	if env.Deadline > 0 {
		dst = appendUvarint(dst, uint64(env.Deadline/time.Microsecond))
	}
	dst = AppendBatchRequest(dst, entries)
	return EndStreamFrame(dst, start)
}

// AppendStreamError appends a complete error frame.
func AppendStreamError(dst []byte, id uint64, se StreamError) []byte {
	start := len(dst)
	dst = BeginStreamFrame(dst, id, FrameError)
	dst = appendUvarint(dst, uint64(se.Status))
	// Whole milliseconds, rounded up: a positive hint never encodes as
	// "none", so a sub-millisecond shed still yields Retry-After: 1.
	ms := se.RetryAfter / time.Millisecond
	if se.RetryAfter > ms*time.Millisecond {
		ms++
	}
	dst = appendUvarint(dst, uint64(ms))
	dst = appendUvarint(dst, uint64(len(se.Msg)))
	dst = append(dst, se.Msg...)
	return EndStreamFrame(dst, start)
}

// AppendStreamCancel appends a complete cancel frame for call id.
func AppendStreamCancel(dst []byte, id uint64) []byte {
	start := len(dst)
	return EndStreamFrame(BeginStreamFrame(dst, id, FrameCancel), start)
}

// ReadStreamFrame reads one frame from r. The body is read into buf
// (grown when its capacity is short) and aliases it; the returned slice
// is buf's storage, to be reused for the next frame only once nothing
// aliases the body. A request body past MaxStreamRequest is read and
// discarded, never buffered, and reported as ErrStreamTooLarge with the
// frame's call ID and type.
func ReadStreamFrame(r io.Reader, buf []byte) (id uint64, t FrameType, body []byte, err error) {
	var hdr [StreamHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	// The length word is checked against MaxStreamFrame here, before
	// any body buffer is sized from it.
	length := binary.BigEndian.Uint32(hdr[:])
	if length < StreamHeaderLen-4 || length > MaxStreamFrame {
		return 0, 0, nil, fmt.Errorf("%w: frame length %d outside %d..%d", ErrStreamFrame, length, StreamHeaderLen-4, MaxStreamFrame)
	}
	t = FrameType(hdr[12])
	if t < FrameRequest || t > FrameCancel {
		return 0, 0, nil, fmt.Errorf("%w: unknown frame type %d", ErrStreamFrame, hdr[12])
	}
	n := int(length) - (StreamHeaderLen - 4)
	if t == FrameCancel && n != 0 {
		return 0, 0, nil, fmt.Errorf("%w: cancel frame with a %d-byte body", ErrStreamFrame, n)
	}
	id = binary.BigEndian.Uint64(hdr[4:])
	if t == FrameRequest && n > MaxStreamRequest {
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, nil, err
		}
		return id, t, nil, fmt.Errorf("%w: %d-byte request frame body exceeds the %d cap", ErrStreamTooLarge, n, MaxStreamRequest)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	body = buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	return id, t, body, nil
}

// DecodeStreamEnvelope parses a request body's QoS envelope and returns
// the A21B bytes that follow it (aliasing body; DecodeBatchRequest
// rejects any trailing bytes after the batch itself). A21B bytes past
// MaxBatchBytes are ErrStreamTooLarge.
func DecodeStreamEnvelope(body []byte) (StreamEnvelope, []byte, error) {
	fr := &frameReader{buf: body, bad: ErrStreamFrame}
	cb, err := fr.byte()
	if err != nil {
		return StreamEnvelope{}, nil, err
	}
	if int(cb) >= len(admit.Classes()) {
		return StreamEnvelope{}, nil, fmt.Errorf("%w: unknown class byte %d", ErrStreamFrame, cb)
	}
	flags, err := fr.byte()
	if err != nil {
		return StreamEnvelope{}, nil, err
	}
	if flags&^(envHedge|envDeadline) != 0 {
		return StreamEnvelope{}, nil, fmt.Errorf("%w: unknown envelope flags %#x", ErrStreamFrame, flags)
	}
	tenant, err := fr.chunk()
	if err != nil {
		return StreamEnvelope{}, nil, err
	}
	if _, err := admit.ParseTenant(string(tenant)); err != nil {
		return StreamEnvelope{}, nil, fmt.Errorf("%w: %v", ErrStreamFrame, err)
	}
	env := StreamEnvelope{Class: admit.Class(cb), Tenant: string(tenant), Hedge: flags&envHedge != 0}
	if flags&envDeadline != 0 {
		us, err := fr.uvarint()
		if err != nil {
			return StreamEnvelope{}, nil, err
		}
		if us == 0 || us > uint64(math.MaxInt64/int64(time.Microsecond)) {
			return StreamEnvelope{}, nil, fmt.Errorf("%w: deadline %dµs outside 1..max", ErrStreamFrame, us)
		}
		env.Deadline = time.Duration(us) * time.Microsecond
	}
	if n := len(body) - fr.off; n > MaxBatchBytes {
		return StreamEnvelope{}, nil, fmt.Errorf("%w: %d-byte batch body exceeds the %d cap", ErrStreamTooLarge, n, MaxBatchBytes)
	}
	return env, body[fr.off:], nil
}

// DecodeStreamError parses an error frame's body.
func DecodeStreamError(body []byte) (StreamError, error) {
	fr := &frameReader{buf: body, bad: ErrStreamFrame}
	status, err := fr.uvarint()
	if err != nil {
		return StreamError{}, err
	}
	if status < 400 || status > 599 {
		return StreamError{}, fmt.Errorf("%w: error status %d outside 400..599", ErrStreamFrame, status)
	}
	ms, err := fr.uvarint()
	if err != nil {
		return StreamError{}, err
	}
	if ms > uint64(math.MaxInt64/int64(time.Millisecond)) {
		return StreamError{}, fmt.Errorf("%w: Retry-After %dms overflows", ErrStreamFrame, ms)
	}
	msg, err := fr.chunk()
	if err != nil {
		return StreamError{}, err
	}
	if fr.off != len(body) {
		return StreamError{}, fmt.Errorf("%w: %d trailing bytes after the error record", ErrStreamFrame, len(body)-fr.off)
	}
	return StreamError{Status: int(status), RetryAfter: time.Duration(ms) * time.Millisecond, Msg: string(msg)}, nil
}
