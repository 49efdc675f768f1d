package router

// The front-end end of the frame stream (codec and layout in
// internal/httpapi): one long-lived connection per HTTPBackend, dialed
// on first use by upgrading the replica's GET /v1/stream, carrying every
// Do and DoBatch call as a request frame. A reader goroutine matches
// replies to calls by call ID. A caller that gives up (hedge loser,
// attempt timer) sends a cancel frame and keeps the connection; its call
// stays registered until the replica's answer frees the in-flight slot.
// A lost connection fails every pending call with a transport error —
// the router's failover decides what happens next, because the stream
// never resends a frame.

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
)

// streamDialTimeout bounds dialing plus the upgrade handshake.
const streamDialTimeout = 2 * time.Second

// errStreamProtocol is the transport error pending calls fail with when a
// protocol violation, not the socket, ended the stream.
var errStreamProtocol = errors.New("stream protocol violation")

// streamClient owns one backend's stream, redialing it after a loss.
type streamClient struct {
	base string // backend name, for errors
	addr string // host:port to dial
	path string // URL path prefix of the replica's API
	tls  *tls.Config

	mu      sync.Mutex
	cur     *streamConn
	dialing *streamDial
}

// streamDial is one dial in progress; every caller needing the stream
// meanwhile waits on it instead of dialing again.
type streamDial struct {
	done chan struct{}
	c    *streamConn
	err  error
}

func newStreamClient(base string) *streamClient {
	s := &streamClient{base: base}
	u, err := url.Parse(base)
	if err != nil {
		return s // dial reports it
	}
	s.addr, s.path = u.Host, u.Path
	if u.Port() == "" {
		port := "80"
		if u.Scheme == "https" {
			port = "443"
		}
		s.addr = net.JoinHostPort(u.Hostname(), port)
	}
	if u.Scheme == "https" {
		s.tls = &tls.Config{ServerName: u.Hostname()}
	}
	return s
}

// conn returns the live stream, dialing one if there is none. The dial
// runs detached from ctx (one caller giving up must not fail the others
// waiting on it); ctx only bounds this caller's wait.
func (s *streamClient) conn(ctx context.Context) (*streamConn, error) {
	s.mu.Lock()
	if c := s.cur; c != nil && c.alive() {
		s.mu.Unlock()
		return c, nil
	}
	d := s.dialing
	if d == nil {
		d = &streamDial{done: make(chan struct{})}
		s.dialing = d
		go func() {
			c, err := s.dial()
			s.mu.Lock()
			if err == nil {
				s.cur = c
			}
			s.dialing = nil
			s.mu.Unlock()
			d.c, d.err = c, err
			close(d.done)
		}()
	}
	s.mu.Unlock()
	select {
	case <-d.done:
		return d.c, d.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dial opens a connection and upgrades it to the frame stream.
func (s *streamClient) dial() (*streamConn, error) {
	if s.addr == "" {
		return nil, errors.New("no host to dial")
	}
	d := net.Dialer{Timeout: streamDialTimeout}
	nc, err := d.Dial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	if s.tls != nil {
		nc = tls.Client(nc, s.tls)
	}
	_ = nc.SetDeadline(time.Now().Add(streamDialTimeout))
	req := "GET " + s.path + httpapi.StreamPath + " HTTP/1.1\r\nHost: " + s.addr +
		"\r\nConnection: Upgrade\r\nUpgrade: " + httpapi.StreamUpgrade + "\r\n\r\n"
	br := bufio.NewReaderSize(nc, 64<<10)
	var resp *http.Response
	if _, err = io.WriteString(nc, req); err == nil {
		resp, err = http.ReadResponse(br, nil)
	}
	if err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("upgrade: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols ||
		!strings.EqualFold(resp.Header.Get("Upgrade"), httpapi.StreamUpgrade) {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		_ = nc.Close()
		// A plain transport failure, never a statusError: a replica that
		// cannot upgrade (down, old, shutting down) is a replica failure
		// to fail over from, not the caller's 4xx.
		return nil, fmt.Errorf("upgrade refused: HTTP %d: %s",
			resp.StatusCode, strings.TrimSpace(string(body)))
	}
	_ = nc.SetDeadline(time.Time{})
	c := &streamConn{nc: nc, calls: make(map[uint64]chan streamReply),
		slots: make(chan struct{}, httpapi.MaxStreamInFlight), done: make(chan struct{})}
	go c.readLoop(br)
	return c, nil
}

// streamReply is one call's answer: a reply or error frame body (owned
// by the caller — it aliases nothing else), or the transport error that
// ended the stream.
type streamReply struct {
	t    httpapi.FrameType
	body []byte
	err  error
}

// streamConn is one upgraded connection.
type streamConn struct {
	nc   net.Conn
	wmu  sync.Mutex // serializes frame writes
	next atomic.Uint64

	mu    sync.Mutex
	calls map[uint64]chan streamReply
	err   error // set once the stream is dead

	slots chan struct{} // in-flight calls, capped at MaxStreamInFlight
	done  chan struct{} // closed when the stream dies
}

func (c *streamConn) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// readLoop delivers every reply to its call until the stream dies.
func (c *streamConn) readLoop(br *bufio.Reader) {
	for {
		// A fresh buffer per frame: decoded payloads alias it for as long
		// as the caller keeps them.
		id, t, body, err := httpapi.ReadStreamFrame(br, nil)
		if err == nil && t != httpapi.FrameReply && t != httpapi.FrameError {
			err = fmt.Errorf("%w: unexpected %v frame", errStreamProtocol, t)
		}
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.calls[id]
		delete(c.calls, id)
		c.mu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("%w: reply for unknown call %d", errStreamProtocol, id))
			return
		}
		<-c.slots
		ch <- streamReply{t: t, body: body} // buffered; an abandoned call's answer is dropped
	}
}

// fail kills the stream once: the socket closes and every pending call
// gets err.
func (c *streamConn) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	calls := c.calls
	c.calls = nil
	c.mu.Unlock()
	_ = c.nc.Close()
	close(c.done)
	for _, ch := range calls {
		ch <- streamReply{err: err}
	}
}

// write sends one complete frame; a write that fails or stalls past
// httpapi.StreamWriteTimeout kills the stream.
func (c *streamConn) write(frame []byte) {
	c.wmu.Lock()
	_ = c.nc.SetWriteDeadline(time.Now().Add(httpapi.StreamWriteTimeout))
	_, err := c.nc.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}
}

// call sends entries as one request frame under ctx's QoS envelope and
// waits for the answer: the A21R body on success, a *statusError for an
// error frame, ctx's error once the caller gives up (after a cancel
// frame), or a transport error when the stream fails. A budget that
// cannot survive the hop is shed here, before any frame is sent.
func (s *streamClient) call(ctx context.Context, entries []httpapi.BatchEntry) ([]byte, error) {
	env, err := httpapi.EnvelopeFrom(ctx, hopBudget)
	if err != nil {
		return nil, err
	}
	c, err := s.conn(ctx)
	if err != nil {
		return nil, s.transportErr(ctx, err)
	}
	select {
	case c.slots <- struct{}{}:
	case <-c.done:
		return nil, s.transportErr(ctx, c.err)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	id := c.next.Add(1)
	ch := make(chan streamReply, 1)
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil, s.transportErr(ctx, c.err)
	}
	c.calls[id] = ch
	c.mu.Unlock()

	fb := httpapi.GetBuffer()
	frame := httpapi.AppendStreamRequest((*fb)[:0], id, env, entries)
	c.write(frame)
	*fb = frame
	httpapi.PutBuffer(fb)

	var rep streamReply
	select {
	case rep = <-ch:
	case <-ctx.Done():
		// Abandoned: tell the replica, keep the connection. The call
		// stays registered so its answer still frees the slot.
		var cb [httpapi.StreamHeaderLen]byte
		c.write(httpapi.AppendStreamCancel(cb[:0], id))
		return nil, ctx.Err()
	}
	switch {
	case rep.err != nil:
		return nil, s.transportErr(ctx, rep.err)
	case rep.t == httpapi.FrameError:
		se, err := httpapi.DecodeStreamError(rep.body)
		if err != nil {
			return nil, fmt.Errorf("router: %s: %w", s.base, err)
		}
		e := &statusError{status: se.Status, msg: se.Msg}
		if se.RetryAfter > 0 {
			e.retryAfter = httpapi.RetryAfterHeader(se.RetryAfter)
		}
		return nil, fmt.Errorf("router: %s: %w", s.base, e)
	}
	return rep.body, nil
}

// transportErr reports a stream failure — as the caller's own context
// error when that is what really ended the call.
func (s *streamClient) transportErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return fmt.Errorf("router: %s: stream: %w", s.base, err)
}
