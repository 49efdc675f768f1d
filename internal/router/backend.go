package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// Backend is one serve replica the router can place requests on.
// Implementations must be safe for concurrent calls.
type Backend interface {
	// Do serves one (experiment, assignment) request under the caller's
	// QoS context (class, deadline, cancellation).
	Do(ctx context.Context, id string, p core.Params) (serve.Response, error)
	// Check probes liveness cheaply; nil means healthy. The router calls
	// it to decide re-admission of an ejected backend.
	Check() error
	// Name identifies the backend in metrics ("engine[2]",
	// "http://host:8021").
	Name() string
}

// BatchBackend is the optional multi-get capability the batched data
// plane routes through: serve many items against one replica in a
// single exchange. Outcomes come back in item order, one per item, and
// one item's failure never fails its siblings — transport-level
// failures (the whole exchange lost) are the returned error instead.
// Backends without it (test doubles, old replicas) are served through
// the classic per-request path.
type BatchBackend interface {
	DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error)
}

// EngineBackend is an in-process serve.Engine shard.
type EngineBackend struct {
	eng  *serve.Engine
	name string
}

// NewEngineBackend wraps an engine. The caller keeps ownership (and must
// Close it).
func NewEngineBackend(eng *serve.Engine, name string) *EngineBackend {
	return &EngineBackend{eng: eng, name: name}
}

// Do implements Backend.
func (b *EngineBackend) Do(ctx context.Context, id string, p core.Params) (serve.Response, error) {
	return b.eng.ServeWith(ctx, id, p)
}

// DoBatch implements BatchBackend straight through the engine's
// multi-get surface.
func (b *EngineBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	return b.eng.ServeEncodedBatch(ctx, items), nil
}

// Check implements Backend; an in-process engine is alive by definition.
func (b *EngineBackend) Check() error { return nil }

// Name implements Backend.
func (b *EngineBackend) Name() string { return b.name }

// Engine exposes the wrapped engine (tests inspect per-replica
// execution counts through it).
func (b *EngineBackend) Engine() *serve.Engine { return b.eng }

// Control implements Controller: apply the raw control body to the
// in-process engine and return the ack JSON.
func (b *EngineBackend) Control(_ context.Context, body []byte) ([]byte, error) {
	var req serve.ControlRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("router: %s: bad control body: %v", b.name, err)
	}
	ack, err := b.eng.ApplyControl(req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(ack)
}

// statusError is an HTTP backend failure carrying the replica's status
// code — so the router can tell client errors (no failover: every
// replica would reject identically) from replica failures (fail over) —
// plus the replica's Retry-After hint when it sent one, so the routing
// front-end can re-emit the header instead of swallowing the backoff
// signal DESIGN.md §8 promises.
type statusError struct {
	status     int
	msg        string
	retryAfter string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.msg) }

// isHTTPClientError reports whether err is a remote replica's 4xx.
func isHTTPClientError(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.status >= 400 && se.status < 500
}

// isHTTPStatus reports whether err is a remote replica's response with
// exactly the given status.
func isHTTPStatus(err error, status int) bool {
	var se *statusError
	return errors.As(err, &se) && se.status == status
}

// HTTPBackend is a remote arch21d replica. Do and DoBatch travel as
// frames over one persistent multiplexed stream (stream.go, upgraded
// from GET /v1/stream); Check probes GET /healthz and Control posts
// /control over plain HTTP.
type HTTPBackend struct {
	base   string
	client *http.Client
	st     *streamClient
}

// NewHTTPBackend points at an arch21d base address ("localhost:8021",
// ":8021", or a full http:// URL).
func NewHTTPBackend(addr string) *HTTPBackend {
	base := strings.TrimSuffix(addr, "/")
	if strings.HasPrefix(base, ":") {
		base = "localhost" + base
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &HTTPBackend{
		base: base,
		// Strictly above the router's per-attempt timeout: the router
		// must be the layer that abandons a slow control call.
		client: &http.Client{Timeout: DefaultTimeout + time.Minute},
		st:     newStreamClient(base),
	}
}

// hopBudget is the slice of a request's remaining deadline the front-end
// keeps for itself when forwarding: network transfer plus envelope
// decode. The replica sees the decremented budget, so the whole chain —
// front-end admission, replica admission, replica execution — fits the
// caller's original deadline instead of each hop granting itself a fresh
// one.
const hopBudget = 5 * time.Millisecond

// Do implements Backend as a DoBatch of one, whose memoized codec
// bytes (served zero-copy from the replica's slab) are decoded here at
// the edge, so a proxied result is the replica's full Result. A failure
// arrives as the frame's error record, keeping /run's status and
// Retry-After hint.
func (b *HTTPBackend) Do(ctx context.Context, id string, p core.Params) (serve.Response, error) {
	class := admit.ClassFrom(ctx)
	outs, err := b.DoBatch(ctx, []serve.BatchItem{{ID: id, Params: p, Class: class}})
	if err != nil {
		return serve.Response{}, err
	}
	if outs[0].Err != nil {
		return serve.Response{}, outs[0].Err
	}
	o := outs[0].RawResponse
	res, err := core.DecodeResult(o.Raw)
	if err != nil {
		return serve.Response{}, fmt.Errorf("router: %s: bad result payload: %v", b.base, err)
	}
	return serve.Response{
		ID:       id,
		Params:   resolvedParams(id, p),
		Key:      o.Key,
		Class:    class,
		CacheHit: o.CacheHit,
		Shared:   o.Shared,
		Result:   res,
		Latency:  o.Latency,
	}, nil
}

// resolvedParams is the assignment the replica served p under — what an
// in-process engine reports in Response.Params: nil for defaults, the
// schema-resolved assignment otherwise (p itself when the registry
// compiled into this binary cannot resolve it).
func resolvedParams(id string, p core.Params) core.Params {
	if len(p) == 0 {
		return nil
	}
	if exp, ok := core.ByID(id); ok {
		if resolved, err := exp.ResolveParams(p); err == nil {
			return resolved
		}
	}
	return p
}

// DoBatch implements BatchBackend as one stream frame carrying every
// item, decoding the per-entry outcomes. The reply buffer is the
// stream's fresh per-frame buffer — never pooled — because every OK
// entry's payload aliases it for the rest of the outcomes' lifetime.
// Entry-level errors surface as statusError values so the router's
// verdict taxonomy (client error vs shed vs replica failure) applies per
// entry exactly as it would to a single routed request. An error record
// answers the whole frame, so it is every entry's outcome, not a failed
// exchange: the replica was reached and gave its verdict.
func (b *HTTPBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	t0 := time.Now()
	entries := make([]httpapi.BatchEntry, len(items))
	for i, it := range items {
		entries[i] = httpapi.BatchEntry{ID: it.ID, Class: it.Class, Params: it.Params.Assignments()}
	}
	raw, err := b.st.call(ctx, entries)
	if err != nil {
		var se *statusError
		if !errors.As(err, &se) {
			return nil, err
		}
		out := make([]serve.BatchOutcome, len(items))
		for i := range out {
			out[i].Err = err
		}
		return out, nil
	}
	results, err := httpapi.DecodeBatchResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("router: %s: bad batch frame: %v", b.base, err)
	}
	if len(results) != len(items) {
		return nil, fmt.Errorf("router: %s: batch returned %d outcomes for %d items",
			b.base, len(results), len(items))
	}
	elapsed := time.Since(t0)
	out := make([]serve.BatchOutcome, len(items))
	for i, res := range results {
		if !res.OK {
			out[i].Err = fmt.Errorf("router: %s /batch entry %s: %w", b.base, items[i].ID,
				&statusError{status: res.Status, msg: res.Msg})
			continue
		}
		out[i].RawResponse = serve.RawResponse{
			ID:       items[i].ID,
			Params:   items[i].Params,
			Key:      res.Key,
			Class:    items[i].Class,
			Raw:      res.Payload,
			CacheHit: res.CacheHit,
			Shared:   res.Shared,
			Latency:  elapsed,
		}
	}
	return out, nil
}

// Control implements Controller: POST the raw body to the replica's
// /control and return its ack body.
func (b *HTTPBackend) Control(ctx context.Context, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/control",
		bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("router: %s: %v", b.base, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("router: %s: %w", b.base, err)
	}
	defer httpapi.DrainClose(resp.Body)
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("router: %s /control: %w", b.base,
			&statusError{status: resp.StatusCode, msg: strings.TrimSpace(string(out))})
	}
	return out, nil
}

// Check implements Backend: GET /healthz with a short deadline.
func (b *HTTPBackend) Check() error {
	req, err := http.NewRequest(http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		return err
	}
	cl := &http.Client{Timeout: 2 * time.Second}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer httpapi.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: %s healthz: HTTP %d", b.base, resp.StatusCode)
	}
	return nil
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.base }
