package metric

import (
	"net/http"
	"strconv"
	"sync/atomic"
)

// Responses counts HTTP responses by status code. Its Serve method is
// the request middleware of both serving tiers.
type Responses struct {
	byCode [900]atomic.Int64 // codes 100-999, the range net/http accepts
}

// Serve serves r through next, counts the response under its status
// code and returns that code and the number of body bytes written.
func (c *Responses) Serve(next http.Handler, w http.ResponseWriter, r *http.Request) (status, bytes int) {
	rec := &recorder{ResponseWriter: w, status: http.StatusOK}
	next.ServeHTTP(rec, r)
	c.byCode[rec.status-100].Add(1)
	return rec.status, rec.bytes
}

// Samples emits one code="…" sample per status code served so far, in
// ascending code order.
func (c *Responses) Samples(emit Emit) {
	for i := range c.byCode {
		if n := c.byCode[i].Load(); n > 0 {
			emit(Label("code", strconv.Itoa(100+i)), n)
		}
	}
}

// recorder notes the status a handler sends (the first one, as net/http
// does) and the body bytes it writes.
type recorder struct {
	http.ResponseWriter
	status, bytes int
	sent          bool
}

func (r *recorder) WriteHeader(code int) {
	if !r.sent {
		r.status, r.sent = code, true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	r.sent = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// Flush forwards to the underlying writer so SSE streams work through
// the middleware.
func (r *recorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
