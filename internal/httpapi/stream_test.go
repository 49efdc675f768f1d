package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
)

// readOne reads the only frame in buf, rejecting bytes past it.
func readOne(buf []byte) (uint64, FrameType, []byte, error) {
	r := bytes.NewReader(buf)
	id, typ, body, err := ReadStreamFrame(r, nil)
	if err == nil && r.Len() != 0 {
		err = errors.New("bytes past the frame")
	}
	return id, typ, body, err
}

func TestStreamRequestRoundTrip(t *testing.T) {
	env := StreamEnvelope{Class: admit.Batch, Tenant: "alpha", Hedge: true, Deadline: 1234 * time.Microsecond}
	entries := []BatchEntry{{ID: "E7", Class: admit.Batch, Params: []string{"f=0.95"}}}
	frame := AppendStreamRequest([]byte("prefix"), 42, env, entries)[len("prefix"):]

	id, typ, body, err := readOne(frame)
	if err != nil || id != 42 || typ != FrameRequest {
		t.Fatalf("ReadStreamFrame = %d %v %v", id, typ, err)
	}
	got, batch, err := DecodeStreamEnvelope(body)
	if err != nil {
		t.Fatalf("DecodeStreamEnvelope: %v", err)
	}
	if got != env {
		t.Fatalf("envelope round trip: got %+v, want %+v", got, env)
	}
	back, err := DecodeBatchRequest(batch)
	if err != nil || len(back) != 1 || back[0].ID != "E7" || back[0].Params[0] != "f=0.95" {
		t.Fatalf("A21B body round trip: %+v %v", back, err)
	}

	// No deadline, no tenant, no hedge: the zero envelope survives too.
	_, _, body, _ = readOne(AppendStreamRequest(nil, 1, StreamEnvelope{}, nil))
	if got, _, err := DecodeStreamEnvelope(body); err != nil || got != (StreamEnvelope{}) {
		t.Fatalf("zero envelope: %+v %v", got, err)
	}
}

func TestStreamErrorAndCancelRoundTrip(t *testing.T) {
	want := StreamError{Status: 503, RetryAfter: 2500 * time.Millisecond, Msg: "queue full"}
	id, typ, body, err := readOne(AppendStreamError(nil, 7, want))
	if err != nil || id != 7 || typ != FrameError {
		t.Fatalf("error frame header: %d %v %v", id, typ, err)
	}
	if got, err := DecodeStreamError(body); err != nil || got != want {
		t.Fatalf("error record: got %+v %v, want %+v", got, err, want)
	}
	if got := RetryAfterHeader(want.RetryAfter); got != "3" {
		t.Fatalf("Retry-After header for 2.5s = %q, want 3 (rounded up)", got)
	}
	if got := RetryAfterHeader(time.Millisecond); got != "1" {
		t.Fatalf("Retry-After header for 1ms = %q, want the 1s minimum", got)
	}

	id, typ, body, err = readOne(AppendStreamCancel(nil, 9))
	if err != nil || id != 9 || typ != FrameCancel || len(body) != 0 {
		t.Fatalf("cancel frame: %d %v %d-byte body %v", id, typ, len(body), err)
	}
}

// A positive Retry-After hint never encodes as "none": sub-millisecond
// hints round up to 1ms (Retry-After: 1 downstream), others to the next
// whole millisecond.
func TestStreamErrorRetryAfterRoundsUp(t *testing.T) {
	for hint, want := range map[time.Duration]time.Duration{
		0:                       0,
		200 * time.Microsecond:  time.Millisecond,
		1500 * time.Microsecond: 2 * time.Millisecond,
		7 * time.Second:         7 * time.Second,
	} {
		_, _, body, err := readOne(AppendStreamError(nil, 1, StreamError{Status: 503, RetryAfter: hint}))
		if err != nil {
			t.Fatal(err)
		}
		if se, err := DecodeStreamError(body); err != nil || se.RetryAfter != want {
			t.Errorf("hint %v decoded as %+v %v, want %v", hint, se, err, want)
		}
	}
}

// A request body past MaxStreamRequest is skipped without being
// buffered: the reader reports ErrStreamTooLarge with the frame's call
// ID and stays in step for the next frame. An A21B body past
// MaxBatchBytes behind a small envelope is ErrStreamTooLarge too.
func TestStreamRequestCaps(t *testing.T) {
	n := MaxStreamRequest + 1
	big := binary.BigEndian.AppendUint32(nil, uint32(StreamHeaderLen-4+n))
	big = binary.BigEndian.AppendUint64(big, 9)
	big = append(big, byte(FrameRequest))
	big = append(big, make([]byte, n)...)
	r := bytes.NewReader(AppendStreamCancel(big, 10))
	id, typ, body, err := ReadStreamFrame(r, nil)
	if !errors.Is(err, ErrStreamTooLarge) || id != 9 || typ != FrameRequest || body != nil {
		t.Fatalf("oversized request: id %d %v %d-byte body, err %v; want call 9, ErrStreamTooLarge, no body", id, typ, len(body), err)
	}
	if id, typ, _, err := ReadStreamFrame(r, nil); err != nil || id != 10 || typ != FrameCancel {
		t.Fatalf("frame after the skipped one: id %d %v %v", id, typ, err)
	}
	// Cut short while skipping: a truncated stream.
	if _, _, _, err := ReadStreamFrame(bytes.NewReader(big[:len(big)-1]), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated oversized request: err = %v, want ErrUnexpectedEOF", err)
	}

	env := AppendStreamRequest(nil, 1, StreamEnvelope{}, nil)[StreamHeaderLen:]
	envLen := len(env) - len(AppendBatchRequest(nil, nil))
	body = append(env[:envLen:envLen], make([]byte, MaxBatchBytes+1)...)
	if _, _, err := DecodeStreamEnvelope(body); !errors.Is(err, ErrStreamTooLarge) {
		t.Fatalf("A21B body over MaxBatchBytes: err = %v, want ErrStreamTooLarge", err)
	}
	if _, _, err := DecodeStreamEnvelope(body[:len(body)-1]); err != nil {
		t.Fatalf("A21B body at MaxBatchBytes: %v", err)
	}
}

// A buffer grown past maxPooledBuffer is not kept for later frames.
func TestPutBufferDropsOversizeBuffers(t *testing.T) {
	big := make([]byte, 0, maxPooledBuffer+1)
	PutBuffer(&big)
	for i := 0; i < 4; i++ {
		if buf := GetBuffer(); cap(*buf) > maxPooledBuffer {
			t.Fatalf("GetBuffer returned a %d-byte buffer", cap(*buf))
		}
	}
}

// frameWith builds a raw frame with an arbitrary length word.
func frameWith(length uint32, typ byte, body []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, length)
	b = binary.BigEndian.AppendUint64(b, 1)
	return append(append(b, typ), body...)
}

func TestStreamFrameRejectsBadFrames(t *testing.T) {
	for name, frame := range map[string][]byte{
		"length under id":    frameWith(3, byte(FrameCancel), nil),
		"length over cap":    frameWith(MaxStreamFrame+1, byte(FrameReply), nil),
		"unknown type":       frameWith(9, 0x7f, nil),
		"type zero":          frameWith(9, 0, nil),
		"cancel with a body": frameWith(10, byte(FrameCancel), []byte{0}),
	} {
		// Refused on the header alone: no body buffer is ever sized from
		// a length the header has not passed.
		if _, _, _, err := ReadStreamFrame(bytes.NewReader(frame), nil); !errors.Is(err, ErrStreamFrame) {
			t.Errorf("%s: err = %v, want ErrStreamFrame", name, err)
		}
	}
	// A header or body cut short is a truncated stream, not a clean end.
	short := AppendStreamCancel(nil, 1)[:StreamHeaderLen-1]
	if _, _, _, err := ReadStreamFrame(bytes.NewReader(short), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated header: err = %v, want ErrUnexpectedEOF", err)
	}
	if _, _, _, err := ReadStreamFrame(bytes.NewReader(frameWith(20, byte(FrameReply), []byte{1})), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: err = %v, want ErrUnexpectedEOF", err)
	}

	for name, body := range map[string][]byte{
		"unknown class":     {9, 0, 0},
		"unknown flag":      {0, 0x80, 0},
		"truncated tenant":  {0, 0, 5, 'a'},
		"zero deadline":     {0, envDeadline, 0, 0},
		"missing deadline":  {0, envDeadline, 0},
		"oversized tenant":  append([]byte{0, 0, admit.MaxTenantLen + 1}, bytes.Repeat([]byte{'t'}, admit.MaxTenantLen+1)...),
		"empty":             {},
		"class, no flags":   {0},
		"deadline overflow": {0, envDeadline, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if _, _, err := DecodeStreamEnvelope(body); err == nil {
			t.Errorf("envelope %s decoded", name)
		}
	}
	for name, body := range map[string][]byte{
		"status 200":     {200, 1, 0, 0},
		"truncated msg":  {0xf7, 0x03, 0, 4, 'a'},
		"trailing bytes": append(AppendStreamError(nil, 1, StreamError{Status: 503})[StreamHeaderLen:], 0),
		"empty":          {},
	} {
		if _, err := DecodeStreamError(body); !errors.Is(err, ErrStreamFrame) {
			t.Errorf("error record %s: err = %v, want ErrStreamFrame", name, err)
		}
	}
}

func TestEnvelopeFromAppliesTheHopBudget(t *testing.T) {
	ctx := admit.WithTenant(admit.WithClass(WithHedge(context.Background()), admit.Batch), "alpha")
	env, err := EnvelopeFrom(ctx, 5*time.Millisecond)
	if err != nil || env != (StreamEnvelope{Class: admit.Batch, Tenant: "alpha", Hedge: true}) {
		t.Fatalf("deadline-free envelope = %+v %v", env, err)
	}

	dctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	env, err = EnvelopeFrom(dctx, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if env.Deadline <= 0 || env.Deadline > 195*time.Millisecond || env.Deadline%time.Microsecond != 0 {
		t.Fatalf("forwarded deadline %v, want a whole-µs share under 195ms", env.Deadline)
	}
	rctx, rcancel := env.Context(context.Background())
	defer rcancel()
	if dl, ok := rctx.Deadline(); !ok || time.Until(dl) > env.Deadline {
		t.Fatalf("replica-side context deadline = %v %v", dl, ok)
	}

	tiny, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	var shed *admit.ShedError
	if _, err := EnvelopeFrom(tiny, 5*time.Millisecond); !errors.As(err, &shed) || !shed.Deadline {
		t.Fatalf("hop-doomed budget = %v, want a deadline ShedError", err)
	}
}

// FuzzStreamFrame drives every stream decoder over arbitrary bytes read
// as a stream of frames: a frame that decodes must re-encode to one that
// decodes to the same values (semantic equality — varints accept
// non-minimal encodings).
func FuzzStreamFrame(f *testing.F) {
	f.Add(AppendStreamRequest(nil, 3, StreamEnvelope{Class: admit.Batch, Tenant: "t", Hedge: true, Deadline: time.Millisecond},
		[]BatchEntry{{ID: "E7", Class: admit.Batch, Params: []string{"f=0.9"}}}))
	f.Add(AppendStreamError(nil, 4, StreamError{Status: 503, RetryAfter: time.Second, Msg: "queue full"}))
	f.Add(AppendStreamCancel(AppendStreamCancel(nil, 5), 6))
	reply := BeginStreamFrame(nil, 7, FrameReply)
	f.Add(EndStreamFrame(AppendBatchResponse(reply, []BatchResult{{OK: true, Key: "E1", Payload: []byte{1}}}), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			id, typ, body, err := ReadStreamFrame(r, nil)
			if err != nil {
				return
			}
			switch typ {
			case FrameRequest:
				fuzzRequest(t, id, body)
			case FrameError:
				se, err := DecodeStreamError(body)
				if err != nil {
					continue
				}
				_, _, body2, err := readOne(AppendStreamError(nil, id, se))
				if err != nil {
					t.Fatalf("re-encoded error frame failed to decode: %v", err)
				}
				if se2, err := DecodeStreamError(body2); err != nil || se2 != se {
					t.Fatalf("error record changed in round trip: %+v -> %+v (%v)", se, se2, err)
				}
			case FrameCancel:
				if id2, _, body2, err := readOne(AppendStreamCancel(nil, id)); err != nil || id2 != id || len(body2) != 0 {
					t.Fatalf("cancel frame changed in round trip: %d -> %d (%v)", id, id2, err)
				}
			}
		}
	})
}

// fuzzRequest round-trips one decodable request frame body.
func fuzzRequest(t *testing.T, id uint64, body []byte) {
	env, batch, err := DecodeStreamEnvelope(body)
	if err != nil {
		return
	}
	entries, err := DecodeBatchRequest(batch)
	if err != nil {
		return
	}
	_, _, body2, err := readOne(AppendStreamRequest(nil, id, env, entries))
	if err != nil {
		t.Fatalf("re-encoded request frame failed to decode: %v", err)
	}
	env2, batch2, err := DecodeStreamEnvelope(body2)
	if err != nil || env2 != env {
		t.Fatalf("envelope changed in round trip: %+v -> %+v (%v)", env, env2, err)
	}
	again, err := DecodeBatchRequest(batch2)
	if err != nil || len(again) != len(entries) {
		t.Fatalf("batch changed in round trip: %d -> %d entries (%v)", len(entries), len(again), err)
	}
	for i := range entries {
		if again[i].ID != entries[i].ID || again[i].Class != entries[i].Class ||
			strings.Join(again[i].Params, "\x00") != strings.Join(entries[i].Params, "\x00") {
			t.Fatalf("entry %d changed in round trip: %+v -> %+v", i, entries[i], again[i])
		}
	}
}
