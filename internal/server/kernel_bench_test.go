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
	miss := []byte(`"cached":false`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if !bytes.Contains(rec.Body.Bytes(), miss) {
			b.Fatal("reply served from the cache")
		}
	}
}
