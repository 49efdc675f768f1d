package router

// Failure modes of the front-end → replica frame stream, each against
// real engines on loopback listeners: a replica killed with frames in
// flight, a hedge loser's cancel frame, an idle stream outliving the
// server's read timeout, and a graceful drain. Run under -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// wireReplica serves a handler on a loopback httptest server and keeps
// the connections it hands over to the frame stream, so a test can
// count the streams a backend opened or kill the replica outright —
// listener and every connection, upgraded ones included (httptest
// forgets a connection once it is hijacked).
type wireReplica struct {
	*httptest.Server
	mu      sync.Mutex
	streams []net.Conn
}

func newWireReplica(t *testing.T, h http.Handler, readTimeout time.Duration) *wireReplica {
	t.Helper()
	w := &wireReplica{Server: httptest.NewUnstartedServer(h)}
	w.Config.ReadTimeout = readTimeout
	w.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateHijacked {
			w.mu.Lock()
			w.streams = append(w.streams, c)
			w.mu.Unlock()
		}
	}
	w.Start()
	t.Cleanup(w.kill)
	return w
}

// upgrades counts the streams the replica accepted.
func (w *wireReplica) upgrades() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.streams)
}

// kill stops the listener and drops every connection.
func (w *wireReplica) kill() {
	w.Server.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range w.streams {
		_ = c.Close()
	}
}

// runnerEngine is a small engine over an injected runner, closed at
// cleanup.
func runnerEngine(t *testing.T, run func(ctx context.Context, id string, p core.Params) (core.Result, error)) *serve.Engine {
	t.Helper()
	e := serve.NewEngine(serve.Config{Shards: 4, Workers: 2, RunnerWith: run})
	t.Cleanup(e.Close)
	return e
}

// A replica killed with frames in flight fails every pending call at
// once — well within the attempt timeout — the router fails the points
// over, and the sweep still computes each grid point exactly once on the
// survivors. The killed replica blocks every run it is handed, so none
// of its work is delivered; its runs see their contexts canceled when
// the connection drops.
func TestStreamReplicaKilledMidStreamFailsOver(t *testing.T) {
	var (
		mu       sync.Mutex
		done     = map[string]int{} // completed runs per cache key, survivors only
		blocked  = make(chan struct{}, 64)
		canceled atomic.Int64
	)
	reps := make([]*wireReplica, 3)
	backends := make([]Backend, 3)
	for i := range reps {
		dying := i == 1
		eng := runnerEngine(t, func(ctx context.Context, id string, p core.Params) (core.Result, error) {
			if dying {
				blocked <- struct{}{}
				<-ctx.Done()
				canceled.Add(1)
				return core.Result{}, ctx.Err()
			}
			exp, ok := core.ByID(id)
			if !ok {
				return core.Result{}, fmt.Errorf("unknown %s", id)
			}
			res, _, err := exp.RunWith(ctx, p)
			if err == nil {
				mu.Lock()
				done[exp.CacheKey(p)]++
				mu.Unlock()
			}
			return res, err
		})
		reps[i] = newWireReplica(t, eng.Handler(), 0)
		backends[i] = NewHTTPBackend(reps[i].URL)
	}
	const timeout = 3 * time.Second
	r, err := New(backends, Config{Timeout: timeout, FailThreshold: 2, ProbeAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var killedAt atomic.Int64
	go func() {
		<-blocked // a frame is in flight on replica 1
		killedAt.Store(time.Now().UnixNano())
		reps[1].kill()
	}()
	var points []sweep.Point
	sum, err := sweep.Run(context.Background(), r, e2eSpec(t), func(pt sweep.Point) error {
		points = append(points, pt)
		return nil
	})
	if err != nil {
		t.Fatalf("sweep across a killed replica: %v", err)
	}
	if k := killedAt.Load(); k == 0 {
		t.Fatal("replica 1 was never handed a frame")
	} else if since := time.Since(time.Unix(0, k)); since >= timeout {
		t.Fatalf("sweep finished %v after the kill: pending calls waited out the %v attempt timeout", since, timeout)
	}
	if sum.Points != 64 || len(points) != 64 {
		t.Fatalf("lost points: summary %d, emitted %d, want 64", sum.Points, len(points))
	}
	seen := map[string]bool{}
	for _, pt := range points {
		if pt.Key == "" || seen[pt.Key] {
			t.Fatalf("point %d has empty or duplicate key %q", pt.Index, pt.Key)
		}
		seen[pt.Key] = true
	}
	mu.Lock()
	for key := range seen {
		if n := done[key]; n != 1 {
			t.Errorf("point %s computed %d times on the survivors, want exactly once", key, n)
		}
	}
	if len(done) != 64 {
		t.Errorf("survivors computed %d distinct points, want 64", len(done))
	}
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for canceled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if canceled.Load() == 0 {
		t.Fatal("the killed replica's in-flight runs never saw their contexts canceled")
	}
	if !r.Metrics().Health[1].Ejected {
		t.Fatalf("killed replica should be ejected: %+v", r.Metrics().Health[1])
	}
}

// A hedge loser's cancel frame cancels the replica-side context of the
// frame it abandoned, and the stream it rode stays up: the next request
// to the same replica reuses it instead of redialing.
func TestStreamHedgeLoserCancelsReplicaFrame(t *testing.T) {
	slowCanceled := make(chan error, 1)
	reps := make([]*wireReplica, 2)
	backends := make([]Backend, 2)
	for i := range reps {
		primary := i == 0
		eng := runnerEngine(t, func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
			if primary && !strings.HasPrefix(id, "FAST") {
				<-ctx.Done() // never answers on its own
				slowCanceled <- ctx.Err()
				return core.Result{}, ctx.Err()
			}
			return fakeResult(id), nil
		})
		reps[i] = newWireReplica(t, eng.Handler(), 0)
		backends[i] = NewHTTPBackend(reps[i].URL)
	}
	r, err := New(backends, Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Open both streams first, so the primary's frame is on the wire
	// before the hedge can fire.
	for _, b := range backends {
		if _, err := b.Do(context.Background(), "FAST", nil); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
	}
	primeScore(r, 0, 100*time.Microsecond)
	primeScore(r, 1, 100*time.Microsecond)
	id := keyOwnedBy(t, r, 0)

	resp, err := r.ServeWith(context.Background(), id, nil)
	if err != nil {
		t.Fatalf("hedged request: %v", err)
	}
	if resp.ID != id {
		t.Fatalf("response for %q, want %q", resp.ID, id)
	}
	if m := r.Metrics(); m.Hedges != 1 || m.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", m.Hedges, m.HedgeWins)
	}
	select {
	case err := <-slowCanceled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("loser's replica-side context ended with %v, want canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the loser's frame was never canceled on the replica")
	}
	waitInflightDrain(t, r)
	if _, err := backends[0].Do(context.Background(), "FAST2", nil); err != nil {
		t.Fatalf("request after the hedge: %v", err)
	}
	if n := reps[0].upgrades(); n != 1 {
		t.Fatalf("primary accepted %d streams, want 1: the cancel tore the stream down", n)
	}
}

// arch21d's server ReadTimeout bounds one HTTP exchange; it must not
// kill a stream that merely sits idle between calls.
func TestStreamSurvivesIdleReadTimeout(t *testing.T) {
	eng := runnerEngine(t, func(_ context.Context, id string, _ core.Params) (core.Result, error) {
		return fakeResult(id), nil
	})
	rep := newWireReplica(t, eng.Handler(), 50*time.Millisecond)
	b := NewHTTPBackend(rep.URL)
	for i := 0; i < 3; i++ {
		if _, err := b.Do(context.Background(), "E1", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		time.Sleep(150 * time.Millisecond) // three read timeouts of idleness
	}
	if n := rep.upgrades(); n != 1 {
		t.Fatalf("replica accepted %d streams, want 1: the idle stream was dropped", n)
	}
}

// A graceful drain lets the frames in flight finish and answer, accepts
// no new stream, then closes: the caller of the in-flight frame gets its
// result, and a call after the drain fails over to nothing.
func TestStreamGracefulShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	eng := runnerEngine(t, func(_ context.Context, id string, _ core.Params) (core.Result, error) {
		if id == "SLOW" {
			close(started)
			<-release
		}
		return fakeResult(id), nil
	})
	rep := newWireReplica(t, eng.Handler(), 0)
	b := NewHTTPBackend(rep.URL)
	if _, err := b.Do(context.Background(), "E1", nil); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}

	slow := make(chan error, 1)
	go func() {
		_, err := b.Do(context.Background(), "SLOW", nil)
		slow <- err
	}()
	<-started
	drained := make(chan error, 1)
	go func() { drained <- eng.ShutdownStreams(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) with a frame still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatalf("in-flight frame did not finish across the drain: %v", err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain never returned after the last frame finished")
	}
	if _, err := b.Do(context.Background(), "E1", nil); err == nil {
		t.Fatal("a drained replica accepted a new stream")
	}
}

// Many goroutines share one stream: Do and DoBatch calls interleave,
// some abandoned mid-flight, and every answer that arrives belongs to
// the call that asked for it.
func TestStreamConcurrentCallsShareOneStream(t *testing.T) {
	eng := runnerEngine(t, func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
		if strings.HasPrefix(id, "SLOW") {
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			}
		}
		return fakeResult(id), nil
	})
	rep := newWireReplica(t, eng.Handler(), 0)
	b := NewHTTPBackend(rep.URL)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("K%d-%d", g, i%7)
				switch i % 4 {
				case 0: // abandoned before its slow run can answer
					ctx, cancel := context.WithCancel(context.Background())
					time.AfterFunc(time.Millisecond, cancel)
					if _, err := b.Do(ctx, "SLOW"+id, nil); err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("abandoned call: %v", err)
					}
				case 1:
					outs, err := b.DoBatch(context.Background(), []serve.BatchItem{{ID: id}, {ID: id + "b"}})
					if err != nil || len(outs) != 2 {
						t.Errorf("batch call: %d outcomes, %v", len(outs), err)
						continue
					}
					for j, want := range []string{id, id + "b"} {
						if outs[j].Err != nil || outs[j].RawResponse.Key != want {
							t.Errorf("batch entry %d: key %q err %v, want %q", j, outs[j].RawResponse.Key, outs[j].Err, want)
						}
					}
				default:
					resp, err := b.Do(context.Background(), id, nil)
					if err != nil {
						t.Errorf("call: %v", err)
					} else if resp.Key != id || resp.Result.Findings[0] != "finding for "+id {
						t.Errorf("call for %q answered with %q", id, resp.Key)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := rep.upgrades(); n != 1 {
		t.Fatalf("replica accepted %d streams, want 1", n)
	}
}

// An error record answering a whole multi-entry frame (here a 413, as a
// replica sends for a reply past the frame cap) is every entry's
// outcome: no transport error, no health failure, and the stream
// carries the next call.
func TestHTTPBackendErrorRecordAnswersEveryEntry(t *testing.T) {
	replica := newStreamStub(t, func(_ httpapi.StreamEnvelope, entries []httpapi.BatchEntry) ([]httpapi.BatchResult, *httpapi.StreamError) {
		if len(entries) > 1 {
			return nil, &httpapi.StreamError{Status: http.StatusRequestEntityTooLarge, Msg: "reply too large"}
		}
		return []httpapi.BatchResult{{OK: true, Key: entries[0].ID, Payload: fakeResult(entries[0].ID).Encode()}}, nil
	})
	b := NewHTTPBackend(replica.URL)
	r, err := New([]Backend{b}, Config{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	items := []serve.BatchItem{{ID: "E1"}, {ID: "E2"}, {ID: "E3"}}
	outs := r.ServeEncodedBatch(context.Background(), items)
	for i, o := range outs {
		if !isHTTPStatus(o.Err, http.StatusRequestEntityTooLarge) {
			t.Fatalf("entry %d outcome = %v, want the 413 error record", i, o.Err)
		}
	}
	for _, h := range r.Metrics().Health {
		if h.Failures != 0 || h.Ejected {
			t.Fatalf("an error record counted as a replica failure: %+v", h)
		}
	}
	if resp, err := b.Do(context.Background(), "E4", nil); err != nil || resp.Key != "E4" {
		t.Fatalf("call after the error record: %+v %v", resp, err)
	}
	if n := replica.upgrades(); n != 1 {
		t.Fatalf("replica accepted %d streams, want 1", n)
	}
}

// streamStub is a replica double that speaks only the frame stream: it
// upgrades GET /v1/stream, answers /healthz, and hands every request
// frame to answer, replying with its results or its error record. It
// counts the request frames and streams it received.
type streamStub struct {
	*wireReplica
	answer func(env httpapi.StreamEnvelope, entries []httpapi.BatchEntry) ([]httpapi.BatchResult, *httpapi.StreamError)
	frames atomic.Int64
}

func newStreamStub(t *testing.T, answer func(httpapi.StreamEnvelope, []httpapi.BatchEntry) ([]httpapi.BatchResult, *httpapi.StreamError)) *streamStub {
	t.Helper()
	st := &streamStub{answer: answer}
	st.wireReplica = newWireReplica(t, http.HandlerFunc(st.serveHTTP), 0)
	return st
}

func (st *streamStub) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != httpapi.StreamPath {
		w.WriteHeader(http.StatusOK)
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	fmt.Fprintf(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		httpapi.StreamUpgrade)
	for {
		id, typ, body, err := httpapi.ReadStreamFrame(brw, nil)
		if err != nil {
			return
		}
		if typ != httpapi.FrameRequest {
			continue
		}
		st.frames.Add(1)
		env, batch, err := httpapi.DecodeStreamEnvelope(body)
		if err != nil {
			return
		}
		entries, err := httpapi.DecodeBatchRequest(batch)
		if err != nil {
			return
		}
		results, serr := st.answer(env, entries)
		var frame []byte
		if serr != nil {
			frame = httpapi.AppendStreamError(nil, id, *serr)
		} else {
			frame = httpapi.BeginStreamFrame(nil, id, httpapi.FrameReply)
			frame = httpapi.EndStreamFrame(httpapi.AppendBatchResponse(frame, results), 0)
		}
		if _, err := conn.Write(frame); err != nil {
			return
		}
	}
}
