package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/admit"
)

// Error codes of the shared envelope. The vocabulary is deliberately
// small and stable: clients branch on the code, humans read the message.
const (
	CodeBadRequest         = "bad_request"         // 400: malformed params, headers, or body
	CodeNotFound           = "not_found"           // 404: unknown experiment
	CodeMethodNotAllowed   = "method_not_allowed"  // 405
	CodePayloadTooLarge    = "payload_too_large"   // 413: request body over the cap
	CodeDeadlineUnmeetable = "deadline_unmeetable" // 429: projected wait exceeds the deadline budget
	CodeQueueFull          = "queue_full"          // 503: admission queue shed
	CodeCanceled           = "canceled"            // 503: caller gone mid-flight
	CodeNoBackends         = "no_backends"         // 503: every candidate replica ejected
	CodeDeadlineExceeded   = "deadline_exceeded"   // 504: the deadline expired in flight
	CodeUpstream           = "upstream_error"      // 5xx passthrough from a replica
	CodeInternal           = "internal"            // 500
)

// ErrorDetail is the body of the shared error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS mirrors the Retry-After header at millisecond
	// precision (the header rounds up to whole seconds); 0 means no hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the one JSON error shape every error path on every
// face of the HTTP API answers with:
//
//	{"error":{"code":"queue_full","message":"...","retry_after_ms":1000}}
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// WriteError writes the shared envelope with the given status and code.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	writeEnvelope(w, status, ErrorDetail{Code: code, Message: msg})
}

// WriteErrorRetry writes the shared envelope plus the Retry-After header
// (whole seconds, minimum 1 — the HTTP-level contract) with the exact
// hint preserved at millisecond precision in the body.
func WriteErrorRetry(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	w.Header().Set("Retry-After", RetryAfterHeader(retryAfter))
	ms := retryAfter.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	writeEnvelope(w, status, ErrorDetail{Code: code, Message: msg, RetryAfterMS: ms})
}

func writeEnvelope(w http.ResponseWriter, status int, d ErrorDetail) {
	WriteJSON(w, status, ErrorEnvelope{Error: d})
}

// WriteQoSError maps an admission or deadline outcome onto the HTTP
// response: 503 queue_full for a full queue, 429 deadline_unmeetable for
// a deadline the projected wait cannot meet — both with a Retry-After
// hint — 504 deadline_exceeded for a request whose own deadline expired
// in flight, and 503 canceled for a caller that is gone (the status is a
// formality). It reports whether err was a QoS outcome it handled.
func WriteQoSError(w http.ResponseWriter, err error) bool {
	var shed *admit.ShedError
	switch {
	case errors.As(err, &shed):
		status, code := http.StatusServiceUnavailable, CodeQueueFull
		if shed.Deadline {
			status, code = http.StatusTooManyRequests, CodeDeadlineUnmeetable
		}
		WriteErrorRetry(w, status, code, err.Error(), shed.RetryAfter)
		return true
	case errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, err.Error())
		return true
	case errors.Is(err, context.Canceled):
		WriteError(w, http.StatusServiceUnavailable, CodeCanceled, err.Error())
		return true
	}
	return false
}

// CodeForStatus maps an upstream replica's status onto the envelope code
// the front-end re-emits, so a shed forwarded through the router carries
// the same code a replica answers directly.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case http.StatusTooManyRequests:
		return CodeDeadlineUnmeetable
	case http.StatusServiceUnavailable:
		return CodeQueueFull
	case http.StatusGatewayTimeout:
		return CodeDeadlineExceeded
	case http.StatusInternalServerError:
		return CodeInternal
	default:
		return CodeUpstream
	}
}

// WriteJSON writes v as an indented JSON response — shared by the
// engine's handlers and the routing front-end so both faces of the API
// encode identically.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
