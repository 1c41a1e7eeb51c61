package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/easched"
	"repro/internal/breaker"
	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// fakeClock is a manually advanced clock for deterministic breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func init() {
	// test-panic always panics: the real (not injected) recovery path.
	check.Register(check.Entry{
		Name: "test-panic",
		Run: func(_ context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			panic("test-panic: deliberate")
		},
	})
}

// mustValidate re-validates a wire response client-side, exactly like
// cmd/schedload: the chaos invariant is that every 200 is a correct
// schedule, degraded or not.
func mustValidate(t *testing.T, body []byte, ts task.Set) wire.ScheduleResponse {
	t.Helper()
	var sr wire.ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	sched := schedule.New(ts, sr.Cores)
	for _, seg := range sr.Segments {
		sched.Add(schedule.Segment{
			Task: seg.Task, Core: seg.Core,
			Start: seg.Start, End: seg.End, Frequency: seg.Frequency,
		})
	}
	pm := power.Model{Gamma: 1, Alpha: 3, P0: 0.05}
	if v := check.Validate(sched, ts, sr.Cores, pm); len(v) > 0 {
		t.Fatalf("served schedule fails validation: %v", v[0])
	}
	return sr
}

// TestDegradedOnSolverPanic: a panicking algorithm must yield a valid
// degraded 200 via the fallback chain, never a crash or a 500.
func TestDegradedOnSolverPanic(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	ts := sectionVD(t)
	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "test-panic", ts, 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want degraded 200: %s", resp.StatusCode, body)
	}
	sr := mustValidate(t, body, ts)
	if !sr.Degraded || sr.FallbackAlgorithm == "" {
		t.Fatalf("response not marked degraded: %+v", sr)
	}
	if sr.Algorithm != "test-panic" {
		t.Fatalf("algorithm = %q, want the requested name", sr.Algorithm)
	}
	if srv.metrics.solvePanics.Load() == 0 {
		t.Fatal("panic not counted")
	}
	if srv.metrics.degraded.Load() != 1 {
		t.Fatal("degraded response not counted")
	}
	// Degraded responses are never cached: a second request re-solves.
	_, body = postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "test-panic", ts, 4))
	if sr := mustValidate(t, body, ts); sr.Cached {
		t.Fatal("degraded response was served from cache")
	}
}

// TestDegradedOnGuardrailRejection: an algorithm whose schedule fails
// the validator degrades to the fallback instead of shipping garbage.
func TestDegradedOnGuardrailRejection(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	ts := sectionVD(t)
	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "test-broken", ts, 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want degraded 200: %s", resp.StatusCode, body)
	}
	sr := mustValidate(t, body, ts)
	if !sr.Degraded {
		t.Fatalf("response not marked degraded: %+v", sr)
	}
	if srv.metrics.verifyFailures.Load() == 0 {
		t.Fatal("guardrail rejection not counted")
	}
}

// TestBreakerOpensAndDegradesInstantly: after threshold consecutive
// failures the breaker denies the primary outright — requests still get
// valid degraded answers, and the open state is visible in /metrics.
func TestBreakerOpensAndDegradesInstantly(t *testing.T) {
	srv, hs := newTestServer(t, Config{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // never half-opens during the test
	})
	ts := sectionVD(t)
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "test-panic", ts, 4))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		mustValidate(t, body, ts)
	}
	if srv.metrics.breakerDenials.Load() == 0 {
		t.Fatal("open breaker never denied the primary")
	}
	// Panics stop once the breaker opens: exactly threshold (2) attempts.
	if n := srv.metrics.solvePanics.Load(); n != 2 {
		t.Fatalf("solvePanics = %d, want 2 (breaker should short-circuit)", n)
	}
	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	if !strings.Contains(metrics, `schedd_breaker_state{algorithm="test-panic"} 1`) {
		t.Fatalf("open breaker not visible in /metrics:\n%s", metrics)
	}
	if !strings.Contains(metrics, `schedd_breaker_transitions_total{algorithm="test-panic",to="open"} 1`) {
		t.Fatalf("breaker transition counter missing:\n%s", metrics)
	}
}

// TestInjectedFaultsAreTypedAndSurvivable drives every injection point
// at rate 1 through the full handler and asserts the server's contract:
// never a crash, never an invalid 200.
func TestInjectedFaultsAreTypedAndSurvivable(t *testing.T) {
	ts := sectionVD(t)

	t.Run("io_error", func(t *testing.T) {
		in := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.IOError: 1}, Seed: 1})
		_, hs := newTestServer(t, Config{Faults: in})
		resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", ts, 4))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
		}
		if in.Counts()[0].Fired == 0 && !firedAny(in) {
			t.Fatal("injector never fired")
		}
	})

	t.Run("solver_panic_everywhere", func(t *testing.T) {
		// Rate 1 panics the fallback too: the chain is exhausted and the
		// server reports 503 — but stays up.
		in := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.SolverPanic: 1}, Seed: 2})
		srv, hs := newTestServer(t, Config{Faults: in})
		resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", ts, 4))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503 (fallback exhausted): %s", resp.StatusCode, body)
		}
		if srv.metrics.fallbackFailures.Load() != 1 {
			t.Fatal("fallback failure not counted")
		}
		if srv.metrics.solvePanics.Load() < 2 {
			t.Fatalf("solvePanics = %d, want primary+fallback", srv.metrics.solvePanics.Load())
		}
		hr, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatal("server unhealthy after injected panics")
		}
	})

	t.Run("alloc_error_degrades", func(t *testing.T) {
		// Per-point randomness: with a 0.5 rate the fallback attempt can
		// dodge the fault, so at least some requests degrade to 200.
		in := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.AllocError: 0.5}, Seed: 3})
		_, hs := newTestServer(t, Config{Faults: in})
		ok, degraded := 0, 0
		for i := 0; i < 20; i++ {
			resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "YDS", ts, 4))
			if resp.StatusCode == http.StatusOK {
				ok++
				if sr := mustValidate(t, body, ts); sr.Degraded {
					degraded++
				}
			} else if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("request %d: unexpected status %d: %s", i, resp.StatusCode, body)
			}
		}
		if ok == 0 {
			t.Fatal("no request survived a 50% fault rate in 20 tries")
		}
	})

	t.Run("cache_corrupt_detected", func(t *testing.T) {
		in := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.CacheCorrupt: 1}, Seed: 4})
		srv, hs := newTestServer(t, Config{Faults: in})
		// First request: nothing cached yet, solve and fill.
		resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", ts, 4))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first status %d: %s", resp.StatusCode, body)
		}
		first := mustValidate(t, body, ts)
		// Second request: the entry is corrupted in place, the checksum
		// catches it, and the server re-solves instead of serving garbage.
		resp, body = postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", ts, 4))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("second status %d: %s", resp.StatusCode, body)
		}
		second := mustValidate(t, body, ts)
		if second.Cached {
			t.Fatal("corrupted cache entry was served as a hit")
		}
		if second.Energy != first.Energy {
			t.Fatalf("re-solve diverged: %g vs %g", second.Energy, first.Energy)
		}
		if srv.metrics.cacheCorruptions.Load() == 0 {
			t.Fatal("corruption not counted")
		}
	})

	t.Run("validator_reject_exhausts", func(t *testing.T) {
		in := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.ValidatorReject: 1}, Seed: 5})
		srv, hs := newTestServer(t, Config{Faults: in})
		resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", ts, 4))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
		}
		if srv.metrics.verifyFailures.Load() < 2 {
			t.Fatal("injected rejections not counted for primary and fallback")
		}
	})
}

func firedAny(in *fault.Injector) bool {
	for _, c := range in.Counts() {
		if c.Fired > 0 {
			return true
		}
	}
	return false
}

// TestStatusForSolveErr pins the error-taxonomy → HTTP status mapping.
func TestStatusForSolveErr(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{easched.ErrInfeasible, http.StatusUnprocessableEntity},
		{easched.ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusServiceUnavailable},
		{easched.ErrSolverPanic, http.StatusInternalServerError},
		{&check.PanicError{Value: "boom"}, http.StatusInternalServerError},
		{easched.ErrInvalidSchedule, http.StatusInternalServerError},
		{errors.New("anything else"), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if got := statusForSolveErr(c.err); got != c.want {
			t.Errorf("statusForSolveErr(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestCanceledProbeDoesNotWedgeBreaker reproduces the probe-slot leak:
// the single half-open probe is canceled by the client (a non-countable
// outcome, so onFailure never runs). The breaker must release the probe
// slot and admit a later probe once the cooldown elapses, rather than
// denying the algorithm forever.
func TestCanceledProbeDoesNotWedgeBreaker(t *testing.T) {
	srv, _ := newTestServer(t, Config{BreakerThreshold: 1})
	clk := &fakeClock{t: time.Unix(0, 0)}
	srv.breakers = breaker.NewSet(1, time.Second, 8*time.Second, clk.now)

	br := srv.breakers.Get("S^F2")
	br.Allow()
	br.Failure() // threshold 1: opens with 1s cooldown
	clk.advance(time.Second)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	req := &wire.ScheduleRequest{
		Algorithm: "S^F2", Cores: 3,
		Model: wire.ModelJSON{Alpha: 3, P0: 0.05},
		Tasks: sectionVD(t),
	}
	if _, _, code, err := srv.solveOne(canceled, req); err == nil || code != http.StatusServiceUnavailable {
		t.Fatalf("canceled probe: code=%d err=%v, want 503", code, err)
	}
	if st := br.Stat("S^F2"); st.State != breaker.Open {
		t.Fatalf("state after canceled probe = %v, want open (slot released)", st.State)
	}
	clk.advance(time.Second) // the abort keeps the cooldown unchanged
	if _, _, code, err := srv.solveOne(context.Background(), req); err != nil {
		t.Fatalf("probe after aborted probe failed: code=%d err=%v", code, err)
	}
	if st := br.Stat("S^F2"); st.State != breaker.Closed {
		t.Fatalf("state after successful probe = %v, want closed", st.State)
	}
}

// TestReadyzRecoversAfterCooldown: /readyz must stop reporting 503 once
// every open breaker's cooldown has elapsed, even with zero traffic —
// otherwise a readiness-gated balancer never sends the probe request
// that would move the breakers out of open.
func TestReadyzRecoversAfterCooldown(t *testing.T) {
	srv, hs := newTestServer(t, Config{BreakerThreshold: 1})
	clk := &fakeClock{t: time.Unix(0, 0)}
	srv.breakers = breaker.NewSet(1, time.Second, 8*time.Second, clk.now)
	b := srv.breakers.Get("only")
	b.Allow()
	b.Failure()

	rr, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during cooldown = %d, want 503", rr.StatusCode)
	}
	clk.advance(time.Second)
	rr, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("readyz after cooldown elapsed = %d, want 200 (probe-eligible)", rr.StatusCode)
	}
}

// TestReadyzAllBreakersOpen: readiness goes red when every known
// algorithm breaker is open.
func TestReadyzAllBreakersOpen(t *testing.T) {
	srv, hs := newTestServer(t, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	b := srv.breakers.Get("only")
	b.Allow()
	b.Failure()
	rr, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with all breakers open = %d, want 503", rr.StatusCode)
	}
}
