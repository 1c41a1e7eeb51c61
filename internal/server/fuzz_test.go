package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/server/wire"
)

// FuzzScheduleHandler throws malformed, truncated, and hostile JSON at
// POST /v1/schedule. The contract under fuzzing: the handler never
// panics, never returns a non-JSON error body, and any 200 it does
// return unmarshals into a well-formed ScheduleResponse.
func FuzzScheduleHandler(f *testing.F) {
	seeds := []string{
		// Valid request (the fuzzer mutates from here).
		`{"algorithm":"S^F2","cores":4,"model":{"alpha":3,"p0":0.05},"tasks":[{"release":0,"work":8,"deadline":10}]}`,
		// Truncated mid-object.
		`{"algorithm":"S^F2","cores":4,"tasks":[{"release":0,`,
		// Literal NaN / Inf are invalid JSON; 1e999 overflows to +Inf.
		`{"algorithm":"S^F2","cores":4,"tasks":[{"release":NaN,"work":1,"deadline":2}]}`,
		`{"algorithm":"S^F2","cores":4,"model":{"alpha":1e999},"tasks":[{"release":0,"work":1e999,"deadline":2}]}`,
		// Empty instance and degenerate shapes.
		`{"algorithm":"S^F2","cores":4,"tasks":[]}`,
		`{"algorithm":"S^F2","cores":0,"tasks":[{"release":0,"work":1,"deadline":2}]}`,
		`{"algorithm":"S^F2","cores":-1,"tasks":[{"release":0,"work":1,"deadline":2}]}`,
		// Deadline before release; zero-length window; negative work.
		`{"algorithm":"S^F2","cores":2,"tasks":[{"release":5,"work":1,"deadline":3}]}`,
		`{"algorithm":"S^F2","cores":2,"tasks":[{"release":5,"work":1,"deadline":5}]}`,
		`{"algorithm":"S^F2","cores":2,"tasks":[{"release":0,"work":-4,"deadline":5}]}`,
		// Unknown algorithm, wrong types, nulls, trailing garbage.
		`{"algorithm":"nope","cores":2,"tasks":[{"release":0,"work":1,"deadline":2}]}`,
		`{"algorithm":7,"cores":"two","tasks":"nope"}`,
		`{"algorithm":null,"cores":null,"model":null,"tasks":null}`,
		`{"algorithm":"S^F2","cores":2,"tasks":[{"release":0,"work":1,"deadline":2}]}trailing`,
		// Not JSON at all.
		``,
		`[]`,
		`"just a string"`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	srv := New(Config{CacheSize: -1, SolveTimeout: -1})
	handler := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // must not panic

		res := rec.Result()
		defer res.Body.Close()
		switch {
		case res.StatusCode == http.StatusOK:
			var sr wire.ScheduleResponse
			if err := json.NewDecoder(res.Body).Decode(&sr); err != nil {
				t.Fatalf("200 with unparseable body: %v", err)
			}
			if sr.Cores <= 0 || len(sr.Segments) == 0 {
				t.Fatalf("200 with degenerate schedule: %+v", sr)
			}
		case res.StatusCode >= 400 && res.StatusCode < 600:
			var env wire.ErrorEnvelope
			if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
				t.Fatalf("error status %d with unparseable body: %v", res.StatusCode, err)
			}
			if env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("status %d with incomplete error envelope: %+v", res.StatusCode, env)
			}
		default:
			t.Fatalf("unexpected status %d", res.StatusCode)
		}
	})
}
