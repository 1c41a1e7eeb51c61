package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// Test-only schedulers registered alongside the real ones. test-block
// parks until released (admission and cancellation tests); test-broken
// returns a schedule that under-executes every task (guardrail test).
var (
	testBlockStarted = make(chan struct{})
	testBlockRelease = make(chan struct{})
)

func init() {
	check.Register(check.Entry{
		Name: "test-block",
		Run: func(_ context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			testBlockStarted <- struct{}{}
			<-testBlockRelease
			return nil, 0, fmt.Errorf("test-block released")
		},
	})
	check.Register(check.Entry{
		Name: "test-broken",
		Run: func(_ context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			s := schedule.New(ts, m)
			// Half the work of task 0 only: a work-conservation violation
			// for every task the validator must catch.
			t0 := ts[0]
			s.Add(schedule.Segment{
				Task: 0, Core: 0,
				Start: t0.Release, End: t0.Release + (t0.Deadline-t0.Release)/2,
				Frequency: t0.Work / (t0.Deadline - t0.Release),
			})
			return s, s.Energy(pm), nil
		},
	})
}

// sectionVD is the paper's known-good Section V.D example.
func sectionVD(t *testing.T) task.Set {
	t.Helper()
	ts, err := task.New(
		[3]float64{0, 8, 10}, [3]float64{2, 14, 18}, [3]float64{4, 8, 16},
		[3]float64{6, 4, 14}, [3]float64{8, 10, 20}, [3]float64{12, 6, 22},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	// Close sessions first so SSE handlers unblock before hs.Close waits
	// on outstanding connections.
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Close)
	return srv, hs
}

func scheduleBody(t *testing.T, algorithm string, ts task.Set, cores int) []byte {
	t.Helper()
	b, err := json.Marshal(wire.ScheduleRequest{
		Algorithm: algorithm,
		Cores:     cores,
		Model:     wire.ModelJSON{Alpha: 3, P0: 0.05},
		Tasks:     ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestScheduleEveryAlgorithm drives POST /v1/schedule through every
// registered production scheduler and re-validates each response.
func TestScheduleEveryAlgorithm(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ts := sectionVD(t)
	pm := power.Model{Gamma: 1, Alpha: 3, P0: 0.05}
	for _, name := range check.Names() {
		if strings.HasPrefix(name, "test-") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, name, ts, 4))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var sr wire.ScheduleResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Algorithm != name || !sr.Verified || sr.Cached {
				t.Fatalf("unexpected response meta: %+v", sr)
			}
			if sr.Energy <= 0 || len(sr.Segments) == 0 {
				t.Fatalf("degenerate solution: energy=%g segments=%d", sr.Energy, len(sr.Segments))
			}
			// Client-side re-validation, exactly like cmd/schedload.
			sched := schedule.New(ts, sr.Cores)
			for _, seg := range sr.Segments {
				sched.Add(schedule.Segment{
					Task: seg.Task, Core: seg.Core,
					Start: seg.Start, End: seg.End, Frequency: seg.Frequency,
				})
			}
			if v := check.Validate(sched, ts, sr.Cores, pm); len(v) > 0 {
				t.Fatalf("response schedule invalid: %v", v[0])
			}
		})
	}
}

func TestScheduleCanonicalEnergy(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	b, err := json.Marshal(wire.ScheduleRequest{
		Algorithm: "S^F2", Cores: 4,
		Model: wire.ModelJSON{Alpha: 3}, // p(f) = f³
		Tasks: sectionVD(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, hs.URL+"/v1/schedule", b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr wire.ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if got, want := sr.Energy, 31.8362; got < want-1e-3 || got > want+1e-3 {
		t.Fatalf("S^F2 energy %g, want ≈ %g", got, want)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxTasks: 3})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"truncated json", `{"algorithm":"S^F2"`, http.StatusBadRequest},
		{"trailing garbage", `{"algorithm":"S^F2","cores":1,"model":{"alpha":2},"tasks":[{"release":0,"work":1,"deadline":2}]}{}`, http.StatusBadRequest},
		{"unknown field", `{"alg":"S^F2"}`, http.StatusBadRequest},
		{"empty tasks", `{"algorithm":"S^F2","cores":1,"model":{"alpha":2},"tasks":[]}`, http.StatusBadRequest},
		{"zero cores", `{"algorithm":"S^F2","cores":0,"model":{"alpha":2},"tasks":[{"release":0,"work":1,"deadline":2}]}`, http.StatusBadRequest},
		{"deadline before release", `{"algorithm":"S^F2","cores":1,"model":{"alpha":2},"tasks":[{"release":5,"work":1,"deadline":2}]}`, http.StatusBadRequest},
		{"alpha below 2", `{"algorithm":"S^F2","cores":1,"model":{"alpha":1},"tasks":[{"release":0,"work":1,"deadline":2}]}`, http.StatusBadRequest},
		{"too many tasks", `{"algorithm":"S^F2","cores":1,"model":{"alpha":2},"tasks":[{"release":0,"work":1,"deadline":2},{"release":0,"work":1,"deadline":2},{"release":0,"work":1,"deadline":2},{"release":0,"work":1,"deadline":2}]}`, http.StatusBadRequest},
		{"unknown algorithm", `{"algorithm":"nope","cores":1,"model":{"alpha":2},"tasks":[{"release":0,"work":1,"deadline":2}]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, hs.URL+"/v1/schedule", []byte(tc.body))
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			var env wire.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("error body not structured: %s", body)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule = %d, want 405", resp.StatusCode)
	}
}

func TestCacheHitVsMiss(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	body := scheduleBody(t, "S^F2", sectionVD(t), 4)

	resp, payload := postJSON(t, hs.URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp.StatusCode, payload)
	}
	var first wire.ScheduleResponse
	if err := json.Unmarshal(payload, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request reported cached")
	}

	resp, payload = postJSON(t, hs.URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: %d %s", resp.StatusCode, payload)
	}
	var second wire.ScheduleResponse
	if err := json.Unmarshal(payload, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if second.Energy != first.Energy || len(second.Segments) != len(first.Segments) {
		t.Fatalf("cache changed the answer: %+v vs %+v", first, second)
	}
	if h, m := srv.metrics.cacheHits.Load(), srv.metrics.cacheMisses.Load(); h != 1 || m != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", h, m)
	}

	// A different algorithm on the same instance must be a distinct key.
	resp, payload = postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F1", sectionVD(t), 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("third: %d %s", resp.StatusCode, payload)
	}
	var third wire.ScheduleResponse
	if err := json.Unmarshal(payload, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different algorithm hit the cache")
	}
}

func TestOverloadReturns429(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1, Queue: -1, SolveTimeout: -1, FallbackAlgorithm: FallbackNone})
	ts := sectionVD(t)

	// Occupy the single worker with the blocking solver.
	errc := make(chan error, 1)
	go func() {
		resp, _ := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "test-block", ts, 4))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			errc <- fmt.Errorf("blocked request finished with %d, want 422", resp.StatusCode)
			return
		}
		errc <- nil
	}()
	<-testBlockStarted

	// With no queue, the next request must be rejected immediately.
	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", ts, 4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if srv.metrics.overload.Load() == 0 {
		t.Fatal("overload rejection not counted")
	}

	testBlockRelease <- struct{}{}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestCancellationMidSolve(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1, SolveTimeout: 50 * time.Millisecond, FallbackAlgorithm: FallbackNone})
	started := make(chan struct{})
	go func() {
		<-testBlockStarted // solver is running when the deadline fires
		close(started)
	}()
	t0 := time.Now()
	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "test-block", sectionVD(t), 4))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %s, deadline was 50ms", elapsed)
	}
	<-started
	if srv.metrics.canceled.Load() == 0 {
		t.Fatal("cancellation not counted")
	}
	// Unpark the abandoned solver goroutine so it releases its slot.
	testBlockRelease <- struct{}{}
}

func TestVerifyGuardrail(t *testing.T) {
	srv, hs := newTestServer(t, Config{FallbackAlgorithm: FallbackNone})
	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "test-broken", sectionVD(t), 4))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("verification")) {
		t.Fatalf("error does not mention verification: %s", body)
	}
	if srv.metrics.verifyFailures.Load() != 1 {
		t.Fatal("verify failure not counted")
	}

	// With the guardrail disabled the broken schedule is shipped as-is —
	// the knob exists only for microbenchmarks.
	_, hs2 := newTestServer(t, Config{DisableVerify: true})
	resp, _ = postJSON(t, hs2.URL+"/v1/schedule", scheduleBody(t, "test-broken", sectionVD(t), 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-verify status %d, want 200", resp.StatusCode)
	}
}

func TestFeasibleEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ts := sectionVD(t)
	b, err := json.Marshal(wire.FeasibleRequest{Cores: 4, Tasks: ts})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, hs.URL+"/v1/feasible", b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var fr wire.FeasibleResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Feasible || fr.Speed != 1 {
		t.Fatalf("canonical instance should be feasible at speed 1: %+v", fr)
	}
	if fr.MinSpeed <= 0 || fr.MinSpeed > 1 {
		t.Fatalf("min_speed %g out of (0, 1]", fr.MinSpeed)
	}

	// At a ceiling below the minimal speed the same instance is infeasible.
	b, err = json.Marshal(wire.FeasibleRequest{Cores: 4, Speed: fr.MinSpeed / 2, Tasks: ts})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, hs.URL+"/v1/feasible", b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Feasible {
		t.Fatalf("should be infeasible below min speed: %+v", fr)
	}
}

func TestAlgorithmsHealthzMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	resp, err := http.Get(hs.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	var ar wire.AlgorithmsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, a := range ar.Algorithms {
		if a == "S^F2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("S^F2 missing from %v", ar.Algorithms)
	}

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{
		"schedd_requests_total", "schedd_latency_ms_bucket", "schedd_latency_ms_count",
		"schedd_queue_depth", "schedd_queue_depth_at_admission_bucket",
		"schedd_cache_hit_rate", "schedd_overload_rejections_total",
	} {
		if !strings.Contains(buf.String(), key) {
			t.Fatalf("/metrics missing %s:\n%s", key, buf.String())
		}
	}
}

func TestChromeTraceMode(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, body := postJSON(t, hs.URL+"/v1/schedule?trace=chrome", scheduleBody(t, "S^F2", sectionVD(t), 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("not a chrome trace: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	// The cached path renders the trace from stored segments.
	resp, body = postJSON(t, hs.URL+"/v1/schedule?trace=chrome", scheduleBody(t, "S^F2", sectionVD(t), 4))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached trace status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("cached trace broken: %v %s", err, body)
	}
}

func TestDrainingRejectsWithRetryAfter(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	srv.draining.Store(true)
	resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", sectionVD(t), 4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Liveness stays green while draining; readiness goes red.
	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (liveness)", hr.StatusCode)
	}
	rr, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", rr.StatusCode)
	}
	if rr.Header.Get("Retry-After") == "" {
		t.Fatal("readyz 503 without Retry-After")
	}
}

// TestGracefulShutdown boots a real listener, issues a request, cancels
// the serve context, and expects ListenAndServe to return cleanly.
func TestGracefulShutdown(t *testing.T) {
	srv := New(Config{Addr: "127.0.0.1:0"})
	// Addr :0 needs a managed listener; use the internal pieces directly.
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	srv2 := New(Config{Addr: "127.0.0.1:0"})
	go func() { done <- srv2.ListenAndServe(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return after cancel")
	}
}

// TestConcurrentSoak hammers the full handler stack from many goroutines
// over a mix of distinct instances, exercising cache hits and misses,
// admission, and the guardrail concurrently. Run under -race via `make
// race`, this is the data-race soak for the serving layer.
func TestConcurrentSoak(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4, Queue: 256})
	pm := power.Model{Gamma: 1, Alpha: 3, P0: 0.05}

	// A few distinct instances: the canonical one plus shifted copies.
	var bodies [][]byte
	var sets []task.Set
	base := sectionVD(t)
	for shift := 0; shift < 4; shift++ {
		triples := make([][3]float64, len(base))
		for i, tk := range base {
			triples[i] = [3]float64{tk.Release + float64(shift), tk.Work, tk.Deadline + float64(shift)}
		}
		ts, err := task.New(triples...)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ts)
		bodies = append(bodies, scheduleBody(t, "S^F2", ts, 4))
	}

	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g + i) % len(bodies)
				resp, err := http.Post(hs.URL+"/v1/schedule", "application/json", bytes.NewReader(bodies[k]))
				if err != nil {
					errs <- err
					return
				}
				var sr wire.ScheduleResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: status %d", g, resp.StatusCode)
					return
				}
				sched := schedule.New(sets[k], sr.Cores)
				for _, seg := range sr.Segments {
					sched.Add(schedule.Segment{
						Task: seg.Task, Core: seg.Core,
						Start: seg.Start, End: seg.End, Frequency: seg.Frequency,
					})
				}
				if v := check.Validate(sched, sets[k], sr.Cores, pm); len(v) > 0 {
					errs <- fmt.Errorf("goroutine %d: invalid schedule: %v", g, v[0])
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
