package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"sync"
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

// bodyPool recycles the buffers ReadBody reads into.
var bodyPool sync.Pool // of *[]byte

// Body is a request body read whole into a pooled buffer.
type Body struct{ buf *[]byte }

// Bytes returns the body. The bytes are valid until Release.
func (b Body) Bytes() []byte { return *b.buf }

// Release returns the buffer to the pool.
func (b Body) Release() { bodyPool.Put(b.buf) }

// ReadBody reads the whole request body, at most maxBodyBytes, into a
// pooled buffer, for a handler that keeps none of the bytes once it
// releases them.
func ReadBody(w http.ResponseWriter, r *http.Request) (Body, error) {
	p, _ := bodyPool.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	buf, err := readBody(w, r, (*p)[:0])
	*p = buf
	if err != nil {
		bodyPool.Put(p)
		return Body{}, err
	}
	return Body{p}, nil
}

// ReadBodyBytes reads the whole request body, at most maxBodyBytes,
// into a new buffer the caller owns: for bytes that outlive the
// handler, such as a body the router forwards, which a transport may
// still be reading after the exchange returns.
func ReadBodyBytes(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return readBody(w, r, nil)
}

// readBody appends the request body to buf[:0], growing it once to the
// body's Content-Length when it is too small, so a body is read in at
// most one allocation.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	// One spare byte lets the read that finds EOF land in the buffer
	// instead of growing it.
	if n := r.ContentLength; n >= 0 && n <= maxBodyBytes && int(n) >= cap(buf) {
		buf = make([]byte, 0, n+1)
	}
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, fmt.Errorf("invalid request body: %w", err)
		}
	}
}

// Decode decodes data, one JSON value, into v, rejecting unknown fields
// and trailing data.
//
// Most bodies take json.Unmarshal, which reads data in place, where a
// json.Decoder copies it into a buffer of its own first: Unmarshal
// accepts exactly one value, and then a scan that finds every object
// key spelled as a field of the Go type at its place (ownKeys) shows
// that a strict decode would have found no unknown field either. Any
// other body, one Unmarshal rejects included, is decoded again by the
// strict decoder, so its error is the strict decoder's.
func Decode(data []byte, v any) error {
	if json.Unmarshal(data, v) == nil && ownKeys(data, reflect.TypeOf(v)) {
		return nil
	}
	return decodeStrict(data, v)
}

// decodeStrict is Decode through a json.Decoder that disallows unknown
// fields.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("invalid request body: trailing data after JSON value")
	}
	return nil
}

// DecodeStrict reads the request body with ReadBody and decodes it with
// Decode.
func DecodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := ReadBody(w, r)
	if err != nil {
		return err
	}
	defer body.Release()
	return Decode(body.Bytes(), v)
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
