package router

// Versioned-API suite: every error path on both HTTP front ends — a
// replica engine's handler and the routing front-end — answers with the
// shared httpapi envelope, on the legacy paths and their /v1 aliases
// alike; upstream sheds pass through with Retry-After intact; and
// HTTPBackend's frame stream serves success, error and canceled calls on
// one connection.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// decodeEnvelope asserts the response is the shared error envelope and
// returns its code.
func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) httpapi.ErrorDetail {
	t.Helper()
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not the shared envelope: %v\n%s", err, rec.Body.String())
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", rec.Body.String())
	}
	return env.Error
}

func TestErrorEnvelopeBothFrontEnds(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 2})
	t.Cleanup(eng.Close)
	rt, err := New([]Backend{NewEngineBackend(newTestEngine(t), "engine[0]")}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fronts := []struct {
		name string
		h    http.Handler
	}{
		{"engine", eng.Handler()},
		{"router", rt.Handler()},
	}
	cases := []struct {
		name   string
		method string
		path   string
		status int
		code   string
	}{
		{"unknown experiment", "GET", "/run/NOPE", http.StatusNotFound, httpapi.CodeNotFound},
		{"malformed param", "GET", "/run/E7?param=bogus", http.StatusBadRequest, httpapi.CodeBadRequest},
		{"bad class header", "GET", "/run/E7", http.StatusBadRequest, httpapi.CodeBadRequest},
		{"bad deadline header", "GET", "/run/E7", http.StatusBadRequest, httpapi.CodeBadRequest},
		{"bad events cursor", "GET", "/events?since=abc", http.StatusBadRequest, httpapi.CodeBadRequest},
		{"bad control body", "POST", "/control", http.StatusBadRequest, httpapi.CodeBadRequest},
	}
	for _, fe := range fronts {
		for _, prefix := range []string{"", "/v1"} {
			for _, tc := range cases {
				if fe.name == "router" && tc.name == "unknown experiment" {
					// The router's verdict for NOPE comes from its test
					// engine, which serves any ID; the engine front end
					// covers the 404 path.
					continue
				}
				t.Run(fmt.Sprintf("%s%s %s", fe.name, prefix, tc.name), func(t *testing.T) {
					var body *strings.Reader
					if tc.method == "POST" {
						body = strings.NewReader("{not json")
					} else {
						body = strings.NewReader("")
					}
					req := httptest.NewRequest(tc.method, prefix+tc.path, body)
					switch tc.name {
					case "bad class header":
						req.Header.Set("X-Arch21-Class", "bogus")
					case "bad deadline header":
						req.Header.Set("X-Arch21-Deadline-MS", "-5")
					}
					rec := httptest.NewRecorder()
					fe.h.ServeHTTP(rec, req)
					if rec.Code != tc.status {
						t.Fatalf("status %d, want %d\n%s", rec.Code, tc.status, rec.Body.String())
					}
					if got := decodeEnvelope(t, rec); got.Code != tc.code {
						t.Fatalf("code %q, want %q", got.Code, tc.code)
					}
				})
			}
		}
	}
}

func TestRouterFormatRejectionIsEnvelope(t *testing.T) {
	rt, err := New([]Backend{NewEngineBackend(newTestEngine(t), "engine[0]")}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := rt.Handler()
	for _, path := range []string{"/run/E7?format=text", "/v1/run/E7?format=text"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, rec.Code)
		}
		if got := decodeEnvelope(t, rec); got.Code != httpapi.CodeBadRequest {
			t.Fatalf("%s: code %q", path, got.Code)
		}
	}
}

func TestV1AliasesServeSameContent(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 2})
	t.Cleanup(eng.Close)
	rt, err := New([]Backend{NewEngineBackend(newTestEngine(t), "engine[0]")}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, fe := range []struct {
		name string
		h    http.Handler
	}{{"engine", eng.Handler()}, {"router", rt.Handler()}} {
		for _, path := range []string{"/healthz", "/experiments"} {
			legacy, versioned := httptest.NewRecorder(), httptest.NewRecorder()
			fe.h.ServeHTTP(legacy, httptest.NewRequest("GET", path, nil))
			fe.h.ServeHTTP(versioned, httptest.NewRequest("GET", "/v1"+path, nil))
			if legacy.Code != http.StatusOK || versioned.Code != http.StatusOK {
				t.Fatalf("%s %s: legacy %d, /v1 %d", fe.name, path, legacy.Code, versioned.Code)
			}
			if legacy.Body.String() != versioned.Body.String() {
				t.Fatalf("%s %s: legacy and /v1 responses differ", fe.name, path)
			}
		}
	}
}

func TestRouterPassesThroughUpstreamShedEnvelope(t *testing.T) {
	// A replica sheds with 503 + Retry-After; the front-end must re-emit
	// the same status, the envelope, and the backoff header instead of
	// swallowing them.
	replica := newStreamStub(t, func(httpapi.StreamEnvelope, []httpapi.BatchEntry) ([]httpapi.BatchResult, *httpapi.StreamError) {
		return nil, &httpapi.StreamError{Status: http.StatusServiceUnavailable, RetryAfter: 2 * time.Second, Msg: "queue full"}
	})
	rt, err := New([]Backend{NewHTTPBackend(replica.URL)}, Config{Retries: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/run/E7", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want %q", got, "2")
	}
	if got := decodeEnvelope(t, rec); got.Code != httpapi.CodeQueueFull {
		t.Fatalf("code %q, want queue_full", got.Code)
	}
}

func TestHTTPBackendReusesConnections(t *testing.T) {
	// Success, error and canceled calls all ride one stream: an error
	// answer is a frame like any other, and a canceled call sends a
	// cancel frame — which cancels the replica-side run — instead of
	// tearing the connection down the way an abandoned HTTP exchange
	// did.
	runCanceled := make(chan error, 1)
	eng := runnerEngine(t, func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
		switch id {
		case "ERR":
			return core.Result{}, errors.New(strings.Repeat("boom ", 200))
		case "HANG":
			<-ctx.Done()
			runCanceled <- ctx.Err()
			return core.Result{}, ctx.Err()
		}
		return fakeResult(id), nil
	})
	rep := newWireReplica(t, eng.Handler(), 0)
	b := NewHTTPBackend(rep.URL)

	if _, err := b.Do(context.Background(), "E1", nil); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if _, err := b.Do(context.Background(), "ERR", nil); err == nil {
		t.Fatal("error request should fail")
	} else if !isHTTPStatus(err, http.StatusInternalServerError) {
		t.Fatalf("error request = %v, want the replica's 500", err)
	}
	// No deadline rides the frame, so only the cancel frame can end the
	// replica-side run.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	_, err := b.Do(ctx, "HANG", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned request = %v, want the caller's cancellation", err)
	}
	select {
	case err := <-runCanceled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("replica-side run ended with %v, want canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the abandoned call's run was never canceled on the replica")
	}
	resp, err := b.Do(context.Background(), "E1", nil)
	if err != nil {
		t.Fatalf("post-cancel request: %v", err)
	}
	if !resp.CacheHit {
		t.Fatal("post-cancel request missed the cache it filled")
	}
	if n := rep.upgrades(); n != 1 {
		t.Fatalf("replica accepted %d streams over success, error and cancel, want 1", n)
	}
}
