package server

// Deterministic tests for the degradation error paths that the chaos
// soak (cmd/schedload -faults) only hits probabilistically: the
// fallback-breaker-open 503, the solver-delay injection point, and the
// auxiliary handlers' reject branches.

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/server/wire"
)

// TestFallbackBreakerOpen503 pins the last rung of the degradation
// ladder: when the primary fails AND the fallback's own breaker is open,
// the server must answer a retryable 503 naming the open fallback
// breaker — not a 200, not a panic, not an unbounded retry loop.
func TestFallbackBreakerOpen503(t *testing.T) {
	srv, hs := newTestServer(t, Config{BreakerThreshold: 1})
	// Open the fallback's breaker directly (threshold 1: one failure).
	srv.breakers.Get(srv.cfg.FallbackAlgorithm).Failure()

	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "test-panic", sectionVD(t), 4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if !strings.Contains(string(body), "breaker open") {
		t.Fatalf("error body does not name the open breaker: %s", body)
	}
	if srv.metrics.breakerDenials.Load() == 0 {
		t.Fatal("breaker denial not counted")
	}
	if srv.metrics.fallbackFailures.Load() == 0 {
		t.Fatal("fallback failure not counted")
	}
}

// TestSolverDelayInjectionTimesOut pins the deadline-blow branch: a
// stalled solver must be cut off by the per-request solve timeout and
// degrade through the fallback chain to a valid 200.
func TestSolverDelayInjectionTimesOut(t *testing.T) {
	_, hs := newTestServer(t, Config{
		SolveTimeout: 20 * time.Millisecond,
		Faults: fault.New(fault.Plan{
			Rates: map[fault.Point]float64{fault.SolverDelay: 1},
			Delay: 500 * time.Millisecond,
			Seed:  1,
		}),
	})

	ts := sectionVD(t)
	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", ts, 4))
	// Both the primary and the fallback stall past the timeout, so the
	// request must fail cleanly (504/503), never hang or 200 with a
	// half-built schedule.
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("stalled solver served 200: %s", body)
	}
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 504 or 503; body %s", resp.StatusCode, body)
	}
}

// TestFallbackEntryResolution pins the chain-disable branches: no
// fallback when unset, when explicitly disabled, when it would re-run
// the failed algorithm, and when the configured name is unknown.
func TestFallbackEntryResolution(t *testing.T) {
	srv := New(Config{})
	if e := srv.fallbackEntry(srv.cfg.FallbackAlgorithm); e != nil {
		t.Fatalf("fallback %q offered for itself", e.Name)
	}
	srv.cfg.FallbackAlgorithm = FallbackNone
	if srv.fallbackEntry("S^F2") != nil {
		t.Fatal("disabled fallback chain still resolves")
	}
	srv.cfg.FallbackAlgorithm = "no-such-algorithm"
	if srv.fallbackEntry("S^F2") != nil {
		t.Fatal("unknown fallback name resolves")
	}
}

func TestStatusForCtxErr(t *testing.T) {
	if got := statusForCtxErr(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Fatalf("deadline: %d, want 504", got)
	}
	if got := statusForCtxErr(context.Canceled); got != http.StatusServiceUnavailable {
		t.Fatalf("canceled: %d, want 503", got)
	}
}

// TestFeasibleHandlerRejects covers the /v1/feasible reject branches.
func TestFeasibleHandlerRejects(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"no tasks", `{"cores": 2, "tasks": []}`, http.StatusBadRequest},
		{"bad cores", `{"cores": 0, "tasks": [{"id":0,"release":0,"work":1,"deadline":2}]}`, http.StatusBadRequest},
		{"negative speed", `{"cores": 2, "speed": -1, "tasks": [{"id":0,"release":0,"work":1,"deadline":2}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, hs.URL+"/v1/feasible", []byte(tc.body))
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, tc.want, body)
			}
		})
	}
	// Wrong method.
	resp, err := http.Get(hs.URL + "/v1/feasible")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/feasible: %d, want 405", resp.StatusCode)
	}
}

// TestCoresCeiling sends one core over MaxCores to the one-shot
// endpoints: each answers 400 with the exact message, before any solve.
func TestCoresCeiling(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	body := []byte(`{"cores": 1025, "tasks": [{"release":0,"work":1,"deadline":2}]}`)
	for _, path := range []string{"/v1/schedule", "/v1/feasible"} {
		resp, payload := postJSON(t, hs.URL+path, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", path, resp.StatusCode, payload)
		}
		checkEnvelope(t, payload, http.StatusBadRequest, wire.CodeBadRequest)
		var env wire.ErrorEnvelope
		if err := json.Unmarshal(payload, &env); err != nil {
			t.Fatal(err)
		}
		if want := "cores must be <= 1024, have 1025"; env.Error.Message != want {
			t.Errorf("%s: message %q, want %q", path, env.Error.Message, want)
		}
	}
}

func TestAlgorithmsHandlerMethod(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, _ := postJSON(t, hs.URL+"/v1/algorithms", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/algorithms: %d, want 405", resp.StatusCode)
	}
}
