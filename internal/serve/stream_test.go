package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// rawStream is a bare frame-stream client built from the codec alone.
type rawStream struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRawStream(t *testing.T, addr string) *rawStream {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: replica\r\nConnection: keep-alive, Upgrade\r\nUpgrade: %s\r\n\r\n",
		httpapi.StreamPath, httpapi.StreamUpgrade)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != httpapi.StreamUpgrade {
		t.Fatalf("upgrade answered %d %q", resp.StatusCode, resp.Header.Get("Upgrade"))
	}
	return &rawStream{t: t, conn: conn, br: br}
}

func (s *rawStream) send(frame []byte) {
	s.t.Helper()
	if _, err := s.conn.Write(frame); err != nil {
		s.t.Fatal(err)
	}
}

func (s *rawStream) recv() (uint64, httpapi.FrameType, []byte) {
	s.t.Helper()
	_ = s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	id, typ, body, err := httpapi.ReadStreamFrame(s.br, nil)
	if err != nil {
		s.t.Fatalf("reading a frame: %v", err)
	}
	return id, typ, body
}

// The replica end of the stream: the upgrade handshake, a frame of one
// answered like /run (a reply, or an error record with its status), a
// larger frame keeping per-entry outcomes, a malformed envelope answered
// without dropping the stream, and the stream metrics.
func TestStreamServesFramesOverTheUpgrade(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) {
		if id == "NOPE" {
			return core.Result{}, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
		}
		return fakeResult(id), nil
	})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	// A plain GET is told how to upgrade.
	resp, err := http.Get(srv.URL + httpapi.StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != httpapi.StreamUpgrade {
		t.Fatalf("plain GET %s = %d %q, want 426 naming the token", httpapi.StreamPath, resp.StatusCode, resp.Header.Get("Upgrade"))
	}

	s := dialRawStream(t, srv.Listener.Addr().String())
	one := func(id string) []httpapi.BatchEntry {
		return []httpapi.BatchEntry{{ID: id, Class: admit.Interactive}}
	}
	s.send(httpapi.AppendStreamRequest(nil, 1, httpapi.StreamEnvelope{}, one("E1")))
	id, typ, body := s.recv()
	results, err := httpapi.DecodeBatchResponse(body)
	if id != 1 || typ != httpapi.FrameReply || err != nil || len(results) != 1 || !results[0].OK || results[0].Key != "E1" {
		t.Fatalf("frame of one: id %d %v %+v %v", id, typ, results, err)
	}

	s.send(httpapi.AppendStreamRequest(nil, 2, httpapi.StreamEnvelope{}, one("NOPE")))
	id, typ, body = s.recv()
	se, err := httpapi.DecodeStreamError(body)
	if id != 2 || typ != httpapi.FrameError || err != nil || se.Status != http.StatusNotFound {
		t.Fatalf("failed frame of one: id %d %v %+v %v, want a 404 error record", id, typ, se, err)
	}

	s.send(httpapi.AppendStreamRequest(nil, 3, httpapi.StreamEnvelope{},
		append(one("E1"), httpapi.BatchEntry{ID: "NOPE", Class: admit.Batch})))
	id, typ, body = s.recv()
	results, err = httpapi.DecodeBatchResponse(body)
	if id != 3 || typ != httpapi.FrameReply || err != nil || len(results) != 2 ||
		!results[0].CacheHit || results[1].Status != http.StatusNotFound {
		t.Fatalf("frame of two: id %d %v %+v %v, want a hit and a 404 outcome", id, typ, results, err)
	}

	// An envelope with an unknown class byte fails its call, not the
	// stream.
	bad := httpapi.AppendStreamRequest(nil, 4, httpapi.StreamEnvelope{}, one("E1"))
	bad[httpapi.StreamHeaderLen] = 9
	s.send(bad)
	id, typ, body = s.recv()
	if se, err := httpapi.DecodeStreamError(body); id != 4 || typ != httpapi.FrameError || err != nil || se.Status != http.StatusBadRequest {
		t.Fatalf("malformed envelope: id %d %v %+v %v, want a 400 error record", id, typ, se, err)
	}
	s.send(httpapi.AppendStreamRequest(nil, 5, httpapi.StreamEnvelope{Deadline: time.Second}, one("E1")))
	if id, typ, _ := s.recv(); id != 5 || typ != httpapi.FrameReply {
		t.Fatalf("call after a malformed one: id %d %v", id, typ)
	}

	body2 := scrape(t, e.Handler())
	for _, want := range []string{"arch21_stream_frames_total 5\n", "arch21_streams_open 1\n"} {
		if !strings.Contains(body2, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}

	if err := e.ShutdownStreams(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, _, err := httpapi.ReadStreamFrame(s.br, nil); err == nil {
		t.Fatal("a drained stream kept delivering frames")
	}
	if !strings.Contains(scrape(t, e.Handler()), "arch21_streams_open 0\n") {
		t.Error("a drained stream still counts as open")
	}
}

// Size caps fail one call, never the stream: a request frame past
// httpapi.MaxStreamRequest is skipped unread and answered with a 413
// error record, and the next call on the same stream is served.
func TestStreamAnswersOversizeRequestWith413(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	s := dialRawStream(t, srv.Listener.Addr().String())

	n := httpapi.MaxStreamRequest + 1
	big := binary.BigEndian.AppendUint32(nil, uint32(httpapi.StreamHeaderLen-4+n))
	big = binary.BigEndian.AppendUint64(big, 1)
	big = append(big, byte(httpapi.FrameRequest))
	s.send(append(big, make([]byte, n)...))
	id, typ, body := s.recv()
	if se, err := httpapi.DecodeStreamError(body); id != 1 || typ != httpapi.FrameError || err != nil ||
		se.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request: id %d %v %+v %v, want a 413 error record", id, typ, se, err)
	}
	s.send(httpapi.AppendStreamRequest(nil, 2, httpapi.StreamEnvelope{}, []httpapi.BatchEntry{{ID: "E1"}}))
	if id, typ, _ := s.recv(); id != 2 || typ != httpapi.FrameReply {
		t.Fatalf("call after an oversized one: id %d %v", id, typ)
	}
}

// A reply past the frame cap the peer reads against becomes a 413 error
// record for its call; one within it is sealed unchanged.
func TestSealReplyCapsOversizeReply(t *testing.T) {
	results := []httpapi.BatchResult{{OK: true, Key: "E1", Payload: make([]byte, 64)}}
	reply := func() []byte {
		return httpapi.AppendBatchResponse(httpapi.BeginStreamFrame(nil, 5, httpapi.FrameReply), results)
	}
	limit := len(reply()) - 4
	id, typ, body, err := httpapi.ReadStreamFrame(bytes.NewReader(sealReply(reply(), 5, limit)), nil)
	if got, derr := httpapi.DecodeBatchResponse(body); err != nil || id != 5 || typ != httpapi.FrameReply ||
		derr != nil || len(got) != 1 || got[0].Key != "E1" {
		t.Fatalf("reply at the cap: id %d %v %+v %v %v", id, typ, got, err, derr)
	}
	id, typ, body, err = httpapi.ReadStreamFrame(bytes.NewReader(sealReply(reply(), 5, limit-1)), nil)
	if se, derr := httpapi.DecodeStreamError(body); err != nil || id != 5 || typ != httpapi.FrameError ||
		derr != nil || se.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("reply over the cap: id %d %v %+v %v %v, want a 413 error record", id, typ, se, err, derr)
	}
}

// A shed always carries a Retry-After hint, as /run's does: a zero or
// sub-millisecond hint still reaches the front-end as 1ms.
func TestStreamErrorShedHint(t *testing.T) {
	for _, hint := range []time.Duration{0, 200 * time.Microsecond} {
		se := streamError(&admit.ShedError{Class: admit.Interactive, RetryAfter: hint})
		_, _, body, err := httpapi.ReadStreamFrame(bytes.NewReader(httpapi.AppendStreamError(nil, 1, se)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := httpapi.DecodeStreamError(body); err != nil || got.Status != http.StatusServiceUnavailable ||
			got.RetryAfter != time.Millisecond {
			t.Errorf("shed with a %v hint: %+v %v, want 503 with 1ms", hint, got, err)
		}
	}
}

// A call ID reused while its first call is in flight is a protocol
// violation: the replica ends the stream.
func TestStreamRejectsReusedCallID(t *testing.T) {
	release := make(chan struct{})
	e := newTestEngine(func(id string) (core.Result, error) {
		<-release
		return fakeResult(id), nil
	})
	defer e.Close()
	defer close(release)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	s := dialRawStream(t, srv.Listener.Addr().String())
	frame := httpapi.AppendStreamRequest(nil, 7, httpapi.StreamEnvelope{},
		[]httpapi.BatchEntry{{ID: "E1"}})
	s.send(frame)
	s.send(frame)
	_ = s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, _, err := httpapi.ReadStreamFrame(s.br, nil); err == nil {
		t.Fatal("the stream survived a reused call ID")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the stream neither answered nor closed after a reused call ID")
	}
}
