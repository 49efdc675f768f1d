package serve

// The replica end of the frame stream (codec and layout in
// internal/httpapi): GET /v1/stream upgrades the connection, after which
// every request frame is served concurrently through ServeFrame — the
// same path POST /batch takes — and answered with a reply or error frame
// written under one mutex. A cancel frame cancels its call's context. The
// engine owns the streams (http.Server.Shutdown does not track hijacked
// connections): Close drops them, ShutdownStreams drains them.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/httpapi"
)

// streamSet is the engine's registry of open streams.
type streamSet struct {
	mu       sync.Mutex
	open     map[*stream]struct{}
	draining bool
	// frames counts request frames served over every stream
	// (arch21_stream_frames_total).
	frames atomic.Int64
}

// add registers s, refusing it once the engine is draining.
func (ss *streamSet) add(s *stream) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.draining {
		return false
	}
	if ss.open == nil {
		ss.open = make(map[*stream]struct{})
	}
	ss.open[s] = struct{}{}
	return true
}

func (ss *streamSet) remove(s *stream) {
	ss.mu.Lock()
	delete(ss.open, s)
	ss.mu.Unlock()
}

func (ss *streamSet) isDraining() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.draining
}

// Len reports the open streams (arch21_streams_open).
func (ss *streamSet) Len() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.open)
}

// drain marks the set draining and returns the streams open now.
func (ss *streamSet) drain() []*stream {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.draining = true
	list := make([]*stream, 0, len(ss.open))
	for s := range ss.open {
		list = append(list, s)
	}
	return list
}

// stream is one upgraded connection.
type stream struct {
	e    *Engine
	conn net.Conn
	// ctx parents every call's context; canceled when the connection is
	// lost, so a vanished front-end's work stops like a closed HTTP
	// request's would.
	ctx    context.Context
	cancel context.CancelFunc

	wmu sync.Mutex // serializes frame writes

	mu    sync.Mutex
	calls map[uint64]context.CancelFunc

	slots    chan struct{} // in-flight request frames, capped
	inflight sync.WaitGroup
	draining atomic.Bool
	done     chan struct{} // closed once the stream is fully torn down
}

// streamUpgradeResponse is the whole 101 answer.
const streamUpgradeResponse = "HTTP/1.1 101 Switching Protocols\r\n" +
	"Connection: Upgrade\r\nUpgrade: " + httpapi.StreamUpgrade + "\r\n\r\n"

// headerHasToken reports whether a comma-separated header carries token
// (case-insensitively), as Connection: keep-alive, Upgrade does.
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// handleStream is GET /v1/stream: upgrade the connection and serve
// frames on it until the peer goes away or the engine drains it. The
// server's read and write timeouts are cleared after the hijack — they
// bound one HTTP exchange, and an idle stream is not a stalled one.
func (e *Engine) handleStream(w http.ResponseWriter, r *http.Request) {
	if !headerHasToken(r.Header, "Connection", "upgrade") ||
		!headerHasToken(r.Header, "Upgrade", httpapi.StreamUpgrade) {
		w.Header().Set("Upgrade", httpapi.StreamUpgrade)
		httpapi.WriteError(w, http.StatusUpgradeRequired, httpapi.CodeBadRequest,
			"GET "+httpapi.StreamPath+" needs Connection: Upgrade and Upgrade: "+httpapi.StreamUpgrade)
		return
	}
	if e.streams.isDraining() {
		httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.CodeCanceled, "replica is shutting down")
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal,
			"stream upgrade unsupported: "+err.Error())
		return
	}
	s := &stream{e: e, conn: conn, calls: make(map[uint64]context.CancelFunc),
		slots: make(chan struct{}, httpapi.MaxStreamInFlight), done: make(chan struct{})}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if !e.streams.add(s) {
		// Shutdown began between the check above and here.
		s.cancel()
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	if _, err := conn.Write([]byte(streamUpgradeResponse)); err != nil {
		s.finish()
		return
	}
	s.serve(brw.Reader)
}

// serve reads frames until the connection fails or the stream drains.
// Request frames run concurrently; a peer past MaxStreamInFlight is
// back-pressured by not reading on until a slot frees.
func (s *stream) serve(br *bufio.Reader) {
	defer s.finish()
	for {
		buf := httpapi.GetBuffer()
		id, t, body, err := httpapi.ReadStreamFrame(br, (*buf)[:0])
		if errors.Is(err, httpapi.ErrStreamTooLarge) {
			// Skipped unread: only this call fails, the stream goes on.
			s.e.streams.frames.Add(1)
			s.write(httpapi.AppendStreamError((*buf)[:0], id, streamError(err)), buf)
			continue
		}
		if err != nil {
			httpapi.PutBuffer(buf)
			return
		}
		switch t {
		case httpapi.FrameRequest:
			s.e.streams.frames.Add(1)
			env, batch, err := httpapi.DecodeStreamEnvelope(body)
			if err != nil {
				s.write(httpapi.AppendStreamError((*buf)[:0], id, streamError(err)), buf)
				continue
			}
			s.slots <- struct{}{}
			// Register before the call starts so a cancel frame read
			// right behind it always finds it.
			ctx, cancel := env.Context(s.ctx)
			s.mu.Lock()
			_, dup := s.calls[id]
			if !dup {
				s.calls[id] = cancel
			}
			s.mu.Unlock()
			if dup {
				cancel()
				httpapi.PutBuffer(buf)
				return // a reused call ID is a protocol violation
			}
			s.inflight.Add(1)
			go s.call(ctx, id, buf, batch)
		case httpapi.FrameCancel:
			httpapi.PutBuffer(buf)
			s.mu.Lock()
			cancel := s.calls[id]
			s.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		default:
			httpapi.PutBuffer(buf) // replies flow the other way only
			return
		}
	}
}

// call serves one request frame's batch and writes its answer: the A21R
// reply, or an error frame for a malformed batch, a failed frame of one,
// or a reply too long for one frame.
func (s *stream) call(ctx context.Context, id uint64, in *[]byte, batch []byte) {
	defer s.inflight.Done()
	out := httpapi.GetBuffer()
	frame := httpapi.BeginStreamFrame((*out)[:0], id, httpapi.FrameReply)
	frame, err := ServeFrame(ctx, batch, frame, true, s.e.ServeEncodedBatch, batchErrStatus)
	httpapi.PutBuffer(in) // ServeFrame copies what it keeps out of the batch
	if err != nil {
		frame = httpapi.AppendStreamError(frame[:0], id, streamError(err))
	} else {
		frame = sealReply(frame, id, httpapi.MaxStreamFrame)
	}
	s.mu.Lock()
	cancel := s.calls[id]
	delete(s.calls, id)
	s.mu.Unlock()
	cancel()
	s.write(frame, out)
	<-s.slots
}

// sealReply patches the length word of the reply frame starting at
// frame[0] — or, when that length would pass limit, which the peer must
// treat as a protocol violation ending the stream, replaces the reply
// with a 413 error record so the oversized answer fails only its call.
func sealReply(frame []byte, id uint64, limit int) []byte {
	if n := len(frame) - 4; n > limit {
		return httpapi.AppendStreamError(frame[:0], id, httpapi.StreamError{
			Status: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("a %d-byte reply exceeds the %d-byte stream frame cap; ask for fewer entries per batch",
				n, limit)})
	}
	return httpapi.EndStreamFrame(frame, 0)
}

// write sends one frame under the write mutex and recycles its buffer.
// A write that fails or stalls past httpapi.StreamWriteTimeout closes
// the connection; the reader sees it and tears the stream down.
func (s *stream) write(frame []byte, buf *[]byte) {
	s.wmu.Lock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(httpapi.StreamWriteTimeout))
	_, err := s.conn.Write(frame)
	s.wmu.Unlock()
	*buf = frame
	httpapi.PutBuffer(buf)
	if err != nil {
		_ = s.conn.Close()
	}
}

// streamError maps a whole-frame failure onto its error record: the
// status /run would answer with, the message, and a shed's backoff hint
// — at least 1ms, as /run always sends a shed's Retry-After.
func streamError(err error) httpapi.StreamError {
	se := httpapi.StreamError{Status: batchErrStatus(err), Msg: err.Error()}
	var shed *admit.ShedError
	if errors.As(err, &shed) {
		se.RetryAfter = max(shed.RetryAfter, time.Millisecond)
	}
	return se
}

// finish tears the stream down once reading has stopped. A draining
// stream lets its calls finish and answer before the connection closes;
// otherwise (a lost connection, a protocol violation) the connection
// closes first and the calls still running are canceled.
func (s *stream) finish() {
	if !s.draining.Load() {
		s.cancel()
		_ = s.conn.Close()
	}
	s.inflight.Wait()
	s.cancel()
	_ = s.conn.Close()
	s.e.streams.remove(s)
	close(s.done)
}

// ShutdownStreams drains every frame stream: each stops reading new
// frames, lets the calls in flight finish and answer, then closes, and
// no new stream is accepted. It returns once every stream is closed, or
// — with ctx expired first — force-closes the rest and returns ctx's
// error. http.Server.Shutdown does not track hijacked connections, so a
// daemon runs this beside it.
func (e *Engine) ShutdownStreams(ctx context.Context) error {
	list := e.streams.drain()
	for _, s := range list {
		s.draining.Store(true)
		// Wakes the reader blocked on the next frame; a frame caught
		// half-read is dropped, and its caller sees the close.
		_ = s.conn.SetReadDeadline(time.Now())
	}
	for _, s := range list {
		select {
		case <-s.done:
		case <-ctx.Done():
			for _, s := range list {
				s.cancel()
				_ = s.conn.Close()
			}
			return fmt.Errorf("serve: stream drain: %w", ctx.Err())
		}
	}
	return nil
}

// closeStreams drops every stream at once (Engine.Close).
func (e *Engine) closeStreams() {
	for _, s := range e.streams.drain() {
		s.cancel()
		_ = s.conn.Close()
	}
}
