package serve

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// HTTP API (every route is also served under the /v1/ prefix — the
// documented, versioned surface; the bare paths stay as legacy aliases):
//
//	GET /v1/healthz              liveness probe
//	GET /v1/experiments          registered experiments: claims + param schemas
//	GET /v1/run/{id}             serve one experiment (JSON envelope)
//	GET /v1/run/{id}?param=n=v   override declared parameters (repeatable)
//	GET /v1/run/{id}?format=text rendered ASCII report
//	GET /v1/run/{id}?format=csv  table/figure as CSV
//	POST /v1/batch               multi-get: varint-framed batch of requests in,
//	                             varint-framed per-entry outcomes + payloads out
//	GET /v1/stream               upgrade (Upgrade: a21-stream) to the persistent
//	                             multiplexed frame stream the front-end routes over
//	GET /v1/stats                engine metrics: counters, cache, per-class p50/p99
//	GET /v1/metrics              Prometheus text exposition (promlint-clean)
//	GET /v1/events?since=N       structured control-plane events after cursor N
//	POST /v1/control             live retune: {"batch_rate":..,"slo_ms":..,"policy":".."}
//
// Every error path answers with the shared JSON envelope
// {"error":{"code","message","retry_after_ms"}} (internal/httpapi).
//
// Every response is served through the engine, so hits, dedup, sheds, and
// latency percentiles in /stats reflect real traffic. The sweep package
// adds POST /sweep (parameter-grid fan-out, NDJSON streaming) on top of
// the same engine; cmd/arch21d mounts both.
//
// QoS envelope: requests carry their class in the X-Arch21-Class header
// ("interactive", the default, or "batch") and an optional remaining
// deadline budget in X-Arch21-Deadline-MS — both propagated by the
// routing front-end so a replica honors the hop-decremented budget the
// caller has left. The engine's admission scheduler may shed instead of
// serve: a full interactive queue answers 503, a deadline no projected
// queue wait can meet answers 429, both with a Retry-After hint; a run
// canceled mid-flight by its deadline answers 504.

// ParamInfo is one declared parameter in an /experiments row.
type ParamInfo struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Default float64 `json:"default"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Step    float64 `json:"step,omitempty"`
	Doc     string  `json:"doc,omitempty"`
}

// ExperimentInfo is one /experiments row. Exported so the routing
// front-end (internal/router) serves the byte-identical envelope a
// replica would.
type ExperimentInfo struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Claim  string      `json:"claim"`
	Params []ParamInfo `json:"params,omitempty"`
}

// ExperimentInfos renders the whole registry in /experiments wire form.
func ExperimentInfos() []ExperimentInfo {
	var list []ExperimentInfo
	for _, ex := range core.Registry() {
		list = append(list, ExperimentInfo{
			ID:     ex.ID,
			Title:  ex.Title,
			Claim:  ex.PaperClaim,
			Params: ParamInfos(ex.Params),
		})
	}
	return list
}

// ParamInfos converts a declared schema to its wire form.
func ParamInfos(specs []core.ParamSpec) []ParamInfo {
	var out []ParamInfo
	for _, s := range specs {
		out = append(out, ParamInfo{
			Name:    s.Name,
			Kind:    s.Kind.String(),
			Default: s.Default,
			Min:     s.Min,
			Max:     s.Max,
			Step:    s.Step,
			Doc:     s.Doc,
		})
	}
	return out
}

// runEnvelope is the /run/{id} JSON response.
type runEnvelope struct {
	ID        string      `json:"id"`
	Params    core.Params `json:"params,omitempty"`
	Key       string      `json:"key,omitempty"`
	Class     string      `json:"class"`
	CacheHit  bool        `json:"cache_hit"`
	Shared    bool        `json:"shared"`
	LatencyMS float64     `json:"latency_ms"`
	Headline  *float64    `json:"headline,omitempty"`
	Findings  []string    `json:"findings,omitempty"`
	Report    string      `json:"report"`
}

// RequestContext derives a request's QoS context from its headers —
// kept as a package-level name for the engine's callers, with the shared
// implementation (one header contract for every face of the API) in
// internal/httpapi. The returned cancel must be called when the request
// finishes.
func RequestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	return httpapi.RequestContext(r)
}

// WriteShedHeaders maps an admission error onto the HTTP response: 503
// queue_full for a full queue, 429 deadline_unmeetable for a deadline
// the projected wait cannot meet — both with a Retry-After hint (whole
// seconds, minimum 1) — and 504 deadline_exceeded for a request whose
// own deadline expired in flight, all in the shared envelope. It reports
// whether err was a QoS outcome it handled.
func WriteShedHeaders(w http.ResponseWriter, err error) bool {
	return httpapi.WriteQoSError(w, err)
}

// Handler returns the engine's HTTP API, every route mounted under /v1
// with the unversioned path kept as a legacy alias.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	httpapi.MountFunc(mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	httpapi.MountFunc(mux, "GET /experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ExperimentInfos())
	})
	httpapi.MountFunc(mux, "GET /run/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		params, err := core.ParseParams(r.URL.Query()["param"])
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		format := r.URL.Query().Get("format")
		switch format {
		case "", "json", "text", "csv", "bin":
		default:
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				"format must be json, text, csv, or bin")
			return
		}
		ctx, cancel, err := RequestContext(r)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		defer cancel()
		if format == "bin" {
			// The zero-copy transport: serve the memoized codec bytes as
			// the body (a warm hit is one slab read, no decode/re-encode;
			// the write below is the single copy-on-read) with the JSON
			// envelope's fields carried in response headers.
			rr, err := e.ServeEncoded(ctx, id, params)
			if err != nil {
				writeRunError(w, err)
				return
			}
			h := w.Header()
			h.Set("Content-Type", "application/octet-stream")
			h.Set(httpapi.HeaderKey, rr.Key)
			h.Set(admit.HeaderClass, rr.Class.String())
			if rr.CacheHit {
				h.Set(httpapi.HeaderCacheHit, "1")
			}
			if rr.Shared {
				h.Set(httpapi.HeaderShared, "1")
			}
			for _, a := range rr.Params.Assignments() {
				h.Add(httpapi.HeaderParam, a)
			}
			_, _ = w.Write(rr.Raw)
			return
		}
		resp, err := e.ServeWith(ctx, id, params)
		if err != nil {
			writeRunError(w, err)
			return
		}
		switch format {
		case "", "json":
			writeJSON(w, http.StatusOK, runEnvelope{
				ID:        resp.ID,
				Params:    resp.Params,
				Key:       resp.Key,
				Class:     resp.Class.String(),
				CacheHit:  resp.CacheHit,
				Shared:    resp.Shared,
				LatencyMS: resp.Latency.Seconds() * 1e3,
				Headline:  resp.Result.Headline,
				Findings:  resp.Result.Findings,
				Report:    resp.Result.Render(),
			})
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(resp.Result.Render()))
		case "csv":
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			switch {
			case resp.Result.Table != nil:
				_, _ = w.Write([]byte(resp.Result.Table.CSV()))
			case resp.Result.Figure != nil:
				_, _ = w.Write([]byte(resp.Result.Figure.CSV()))
			}
		}
	})
	// POST /batch: the multi-get wire surface (varint frames in and out,
	// per-entry outcome words, payloads served zero-copy from the slab).
	httpapi.MountFunc(mux, "POST /batch", func(w http.ResponseWriter, r *http.Request) {
		WriteFrame(w, r, e.ServeEncodedBatch, batchErrStatus)
	})
	// GET /v1/stream: the routing front-end's persistent frame stream
	// (stream.go). Versioned only — it postdates the legacy paths.
	mux.HandleFunc("GET "+httpapi.StreamPath, e.handleStream)
	httpapi.MountFunc(mux, "GET /stats", func(w http.ResponseWriter, r *http.Request) {
		// Memoized (StatsTTL): a dashboard poller must not pay — or make
		// the serving path pay — a full reservoir walk per request.
		writeJSON(w, http.StatusOK, e.MetricsCached())
	})
	httpapi.Mount(mux, "GET /metrics", e.MetricsRegistry().Handler())
	httpapi.Mount(mux, "GET /events", e.Events().Handler())
	httpapi.Mount(mux, "POST /control", e.ControlHandler())
	return mux
}

// writeRunError maps a /run serving error onto the wire: QoS sheds get
// their dedicated statuses (503/429/504 + Retry-After), unknown IDs 404,
// bad params 400, everything else 500 — all in the shared envelope.
func writeRunError(w http.ResponseWriter, err error) {
	if WriteShedHeaders(w, err) {
		return
	}
	status, code := http.StatusInternalServerError, httpapi.CodeInternal
	switch {
	case errors.Is(err, ErrUnknownExperiment):
		status, code = http.StatusNotFound, httpapi.CodeNotFound
	case errors.Is(err, ErrBadParams):
		status, code = http.StatusBadRequest, httpapi.CodeBadRequest
	}
	httpapi.WriteError(w, status, code, err.Error())
}

// WriteJSON writes v as an indented JSON response — kept as a
// package-level name for the engine's callers; the shared encoder both
// faces of the API use lives in internal/httpapi.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	httpapi.WriteJSON(w, status, v)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) { WriteJSON(w, status, v) }
