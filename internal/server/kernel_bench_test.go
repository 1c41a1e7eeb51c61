package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/server/wire"
	"repro/internal/task"
)

// BenchmarkColdSolve serves S^F2 requests for paper-default n=100
// instances on 16 cores through Server.Handler: decode, solve, the
// guardrail audit with its execution profile, encode and cache fill.
// The requests cycle through more instances than the default 1024-entry
// LRU cache holds, so every one is a miss.
func BenchmarkColdSolve(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()

	bodies := paperBodies(b, 1024+64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(bodies[i%len(bodies)])))
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
		if !w.miss() {
			b.Fatal("reply served from the cache")
		}
	}
}

// hotInstances is how many cached instances the hit path cycles over.
const hotInstances = 16

// BenchmarkHotSolve serves cache hits for paper-default n=100 instances
// on 16 cores through Server.Handler: the body read, its SHA-256, the
// cache lookup with its checksum, and the reply write, with no decode.
func BenchmarkHotSolve(b *testing.B) {
	h, bodies := warmServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(bodies[i%len(bodies)])))
		if w.code != http.StatusOK || w.miss() {
			b.Fatalf("status %d, miss %v", w.code, w.miss())
		}
	}
}

// TestHotSolveAllocs caps the allocations of one cache hit through
// Server.Handler, the request and writer the test builds included, at
// the measured count: a hit must not start decoding the request again.
// Skipped under -race, which adds its own.
func TestHotSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const ceiling = 32
	h, bodies := warmServer(t)
	body := bytes.NewReader(nil)
	i := 0
	got := testing.AllocsPerRun(50, func() {
		body.Reset(bodies[i%len(bodies)])
		i++
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", body))
		if w.code != http.StatusOK || w.miss() {
			t.Fatalf("status %d, miss %v", w.code, w.miss())
		}
	})
	if got > ceiling {
		t.Errorf("a cache hit allocates %v times, ceiling %v", got, ceiling)
	}
}

// warmServer returns the handler of a server whose cache holds the
// replies to hotInstances paper-default requests, and those requests.
func warmServer(tb testing.TB) (http.Handler, [][]byte) {
	srv := New(Config{})
	tb.Cleanup(srv.Close)
	h := srv.Handler()
	bodies := paperBodies(tb, hotInstances)
	for _, body := range bodies {
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if w.code != http.StatusOK || !w.miss() {
			tb.Fatalf("warm-up: status %d, miss %v", w.code, w.miss())
		}
	}
	return h, bodies
}

// paperBodies returns n S^F2 request bodies for paper-default n=100
// instances on 16 cores.
func paperBodies(tb testing.TB, n int) [][]byte {
	rng := rand.New(rand.NewSource(19))
	bodies := make([][]byte, n)
	for i := range bodies {
		ts, err := task.Generate(rng, task.PaperDefaults(100))
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i], err = json.Marshal(wire.ScheduleRequest{
			Algorithm: "S^F2", Cores: 16, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, Tasks: ts,
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return bodies
}

// missMarker is what a reply that missed the cache says.
var missMarker = []byte(`"cached":false`)

// missWriter is a ResponseWriter that keeps the status and the head of
// the body, where a schedule reply says whether it was cached, and drops
// the rest, as a connection write does: buffering the reply, as
// httptest.ResponseRecorder does, would charge the handler for growing
// the buffer.
type missWriter struct {
	header http.Header
	code   int
	head   [256]byte
	n      int
}

func (w *missWriter) Header() http.Header { return w.header }

func (w *missWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *missWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += copy(w.head[w.n:], p)
	return len(p), nil
}

// miss reports whether the reply says it missed the cache.
func (w *missWriter) miss() bool { return bytes.Contains(w.head[:w.n], missMarker) }
