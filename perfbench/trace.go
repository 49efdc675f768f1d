package main

// Tracing for the traced run. Spans are recorded only here, around the
// calls into each layer's public surface: the benchmark's own client
// call, an http.Handler middleware around the front-end mux and each
// replica mux, and a decorator around each router.HTTPBackend. They are
// kept in memory and analysed once the traced window ends. Recording is
// switched by an atomic flag, so the untraced and traced windows run on
// one topology and differ only by the recording.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/serve"
)

type spanKind uint8

const (
	spanClient spanKind = iota
	spanFrontRun
	spanFrontSweep
	spanFrontOther
	spanDo
	spanDoBatch
	spanReplicaRun
	spanReplicaBatch
	spanReplicaOther
)

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's epoch. conn joins a backend call to the replica
// handler span it caused: the call's local connection address equals the
// replica request's remote address, and a keep-alive connection carries
// one exchange at a time.
type span struct {
	kind       spanKind
	id, parent uint64
	start, end time.Duration
	conn       string
	items      int
	url        *url.URL // front-end /run spans: the request target
	keys       []string // coalesced interactive frames: the items' routing keys
}

func (s *span) dur() time.Duration { return s.end - s.start }

// headerSpan carries the client span's ID to the front-end middleware.
const headerSpan = "X-Perfbench-Span"

type spanCtxKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanCtxKey{}).(uint64)
	return id
}

// tracer collects spans while on.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// handler wraps a replica mux or the front-end mux.
func (t *tracer) handler(replica bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{id: t.newID(), conn: r.RemoteAddr}
		path := r.URL.Path
		run := strings.Contains(path, "/run/")
		switch {
		case replica && run:
			s.kind = spanReplicaRun
		case replica && strings.HasSuffix(path, "/batch"):
			s.kind = spanReplicaBatch
		case replica:
			s.kind = spanReplicaOther
		case run:
			s.kind, s.url = spanFrontRun, r.URL
		case strings.HasSuffix(path, "/sweep"):
			s.kind = spanFrontSweep
		default:
			s.kind = spanFrontOther
		}
		if !replica {
			s.parent = parseSpanID(r.Header.Get(headerSpan))
		}
		s.start = t.now()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s.id)))
		s.end = t.now()
		t.record(s)
	})
}

func parseSpanID(h string) uint64 {
	var id uint64
	for i := 0; i < len(h); i++ {
		c := h[i]
		if c < '0' || c > '9' {
			return 0
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// tracedBackend decorates a router.HTTPBackend. Embedding keeps Check,
// Name and Control, so router.New detects the same capabilities (batch
// and control) it detects on the bare backend.
type tracedBackend struct {
	*router.HTTPBackend
	t *tracer
}

func (b *tracedBackend) begin(ctx context.Context, kind spanKind, items int) (context.Context, *span) {
	s := &span{kind: kind, id: b.t.newID(), parent: spanFrom(ctx), items: items}
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(ci httptrace.GotConnInfo) { s.conn = ci.Conn.LocalAddr().String() },
	})
	s.start = b.t.now()
	return ctx, s
}

// Do implements router.Backend.
func (b *tracedBackend) Do(ctx context.Context, id string, p core.Params) (serve.Response, error) {
	if !b.t.on.Load() {
		return b.HTTPBackend.Do(ctx, id, p)
	}
	ctx, s := b.begin(ctx, spanDo, 1)
	resp, err := b.HTTPBackend.Do(ctx, id, p)
	s.end = b.t.now()
	b.t.record(*s)
	return resp, err
}

// DoBatch implements router.BatchBackend. A frame the coalescer ships
// runs under a context detached from its callers, so it has no parent;
// for interactive frames the items' routing keys are kept, and the
// analysis joins the frame to the front-end requests it served by key
// and time.
func (b *tracedBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	if !b.t.on.Load() {
		return b.HTTPBackend.DoBatch(ctx, items)
	}
	interactive := false
	for _, it := range items {
		interactive = interactive || it.Class == admit.Interactive
	}
	ctx, s := b.begin(ctx, spanDoBatch, len(items))
	if interactive && s.parent == 0 {
		s.keys = make([]string, len(items))
		for i, it := range items {
			s.keys[i] = it.Key
			if it.Key == "" {
				s.keys[i] = router.RouteKey(it.ID, it.Params)
			}
		}
	}
	outs, err := b.HTTPBackend.DoBatch(ctx, items)
	s.end = b.t.now()
	b.t.record(*s)
	return outs, err
}

// frontKey derives a front-end /run span's routing key from its URL.
func frontKey(u *url.URL) string {
	id := u.Path[strings.LastIndex(u.Path, "/")+1:]
	p, err := core.ParseParams(u.Query()["param"])
	if err != nil {
		return ""
	}
	return router.RouteKey(id, p)
}

var spanNames = [...]string{
	spanClient:       "client",
	spanFrontRun:     "frontend.run",
	spanFrontSweep:   "frontend.sweep",
	spanFrontOther:   "frontend.other",
	spanDo:           "router.do",
	spanDoBatch:      "router.dobatch",
	spanReplicaRun:   "replica.run",
	spanReplicaBatch: "replica.batch",
	spanReplicaOther: "replica.other",
}

// writeSpans writes the spans as NDJSON, one span per line with its
// name, ID, parent (0 when the context carried none) and start and end
// in nanoseconds since the tracer started.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			spanNames[s.kind], s.id, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write already failed; report that error
		return err
	}
	return f.Close()
}
