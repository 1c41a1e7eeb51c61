package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// ErrorCode is the machine-readable classification carried by every
// non-2xx v1 response. Codes are stable API: clients switch on them,
// so renaming one is a breaking change (bump Version).
type ErrorCode string

const (
	// Client-side request problems.
	CodeBadRequest       ErrorCode = "bad_request"       // malformed body or invalid parameters
	CodeUnknownAlgorithm ErrorCode = "unknown_algorithm" // algorithm not registered
	CodeNotFound         ErrorCode = "not_found"         // unknown route or session ID
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	CodeInfeasible       ErrorCode = "infeasible"     // easched.ErrInfeasible: no schedule exists at f_max
	CodeUnprocessable    ErrorCode = "unprocessable"  // instance rejected for another solver-side reason
	CodeSessionClosed    ErrorCode = "session_closed" // lifecycle op on a finished session
	CodeDuplicateSession ErrorCode = "duplicate_session"

	// Retryable serving-side conditions.
	CodeOverloaded  ErrorCode = "overloaded"   // admission queue or session/backlog limits
	CodeDraining    ErrorCode = "draining"     // shutdown in progress
	CodeBreakerOpen ErrorCode = "breaker_open" // circuit breaker denied the attempt
	CodeTimeout     ErrorCode = "timeout"      // per-attempt solve deadline blew
	CodeCanceled    ErrorCode = "canceled"     // request context ended first
	CodeUnavailable ErrorCode = "unavailable"  // transient failure, fallback exhausted, bad gateway

	// Server faults.
	CodeSolverPanic     ErrorCode = "solver_panic"     // easched.ErrSolverPanic recovered
	CodeInvalidSchedule ErrorCode = "invalid_schedule" // guardrail rejected the produced schedule
	CodeInternal        ErrorCode = "internal"
)

// ErrorDetail is the error object inside the unified envelope.
type ErrorDetail struct {
	Code      ErrorCode `json:"code"`
	Message   string    `json:"message"`
	Retryable bool      `json:"retryable"`
}

// ErrorEnvelope is the body of every non-2xx v1 response:
//
//	{"version":1,"error":{"code":"overloaded","message":"...","retryable":true}}
type ErrorEnvelope struct {
	Version int         `json:"version"`
	Error   ErrorDetail `json:"error"`
}

// RetryableStatus reports whether an HTTP status signals a transient
// condition worth retrying with backoff.
func RetryableStatus(status int) bool {
	switch status {
	case 429, 502, 503, 504:
		return true
	}
	return false
}

// WriteError writes the envelope for a non-2xx reply. schedd and the
// router both answer through it, so a client cannot tell a
// router-origin error from a backend-origin one.
func WriteError(w http.ResponseWriter, status int, code ErrorCode, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{
		Version: Version,
		Error: ErrorDetail{
			Code:      code,
			Message:   fmt.Sprintf(format, args...),
			Retryable: RetryableStatus(status),
		},
	})
}

// WriteJSON writes a 2xx reply body; errors go through WriteError.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// RetryAfter marks an overload or draining reply as retryable.
func RetryAfter(w http.ResponseWriter, seconds int) {
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
}

// maxBodyBytes bounds request bodies so a single client cannot exhaust
// memory; generously sized for tens of thousands of tasks.
const maxBodyBytes = 8 << 20

// DecodeStrict decodes one JSON value from the request body, rejecting
// unknown fields and trailing data.
func DecodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("invalid request body: trailing data after JSON value")
	}
	return nil
}

// DecodeError extracts the error detail from a non-2xx response body.
// ok is false when the body is not an envelope.
func DecodeError(body []byte) (d ErrorDetail, ok bool) {
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		return ErrorDetail{}, false
	}
	return env.Error, true
}
