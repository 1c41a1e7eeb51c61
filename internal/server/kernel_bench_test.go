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

	rng := rand.New(rand.NewSource(19))
	bodies := make([][]byte, 1024+64)
	for i := range bodies {
		ts, err := task.Generate(rng, task.PaperDefaults(100))
		if err != nil {
			b.Fatal(err)
		}
		bodies[i], err = json.Marshal(wire.ScheduleRequest{
			Algorithm: "S^F2", Cores: 16, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, Tasks: ts,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(bodies[i%len(bodies)])))
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
		if !w.miss {
			b.Fatal("reply served from the cache")
		}
	}
}

// missMarker is what a reply that missed the cache says.
var missMarker = []byte(`"cached":false`)

// missWriter is a ResponseWriter that keeps the status and whether the
// body says missMarker, and drops the body, as a connection write does:
// buffering the reply, as httptest.ResponseRecorder does, would charge
// the handler for growing the buffer.
type missWriter struct {
	header http.Header
	code   int
	miss   bool
	// seam holds the last len(missMarker)-1 bytes written, so a marker
	// split across writes (the reply is written in parts) is found.
	seam []byte
}

func (w *missWriter) Header() http.Header { return w.header }

func (w *missWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *missWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	keep := len(missMarker) - 1
	if !w.miss {
		w.miss = bytes.Contains(append(w.seam, p[:min(len(p), keep)]...), missMarker) || bytes.Contains(p, missMarker)
	}
	w.seam = append(w.seam, p[max(0, len(p)-keep):]...)
	w.seam = w.seam[max(0, len(w.seam)-keep):]
	return len(p), nil
}
