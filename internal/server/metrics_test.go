package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server/wire"
)

func TestMetricsWriteAndHitRate(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	m := srv.metrics
	if m.CacheHitRate() != 0 {
		t.Fatal("hit rate before any lookup should be 0")
	}
	m.cacheHits.Add(3)
	m.cacheMisses.Add(1)
	if got := m.CacheHitRate(); got != 0.75 {
		t.Fatalf("hit rate %g, want 0.75", got)
	}
	for _, code := range []int{200, 429, 200} {
		reply := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(code) })
		m.responses.Serve(reply, httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	}

	var buf bytes.Buffer
	if err := m.reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`schedd_responses_total{code="200"} 2`,
		`schedd_responses_total{code="429"} 1`,
		"schedd_cache_hit_rate 0.75",
		"schedd_queue_depth 0",
		// Counters print their zeros for scrape stability.
		"schedd_sessions_opened_total 0",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, buf.String())
		}
	}
	// Status codes must appear in sorted order for scrape stability.
	if strings.Index(buf.String(), `code="200"`) > strings.Index(buf.String(), `code="429"`) {
		t.Fatal("response codes not sorted")
	}
}

func TestMetricsSessionGaugesAndCounters(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		createSession(t, hs.URL, wire.SessionCreateRequest{Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}})
	}
	m := srv.metrics
	m.sessionsOpened.Add(3)
	m.sessionsClosed.Add(2)
	m.sessionsEvicted.Add(1)
	m.sessionArrivals.Add(40)
	m.sessionReplans.Add(9)
	m.sessionReplanErrors.Add(1)
	m.sessionSheds.Add(3)
	m.replanMS.Observe(0.2)
	m.replanMS.Observe(30)

	var buf bytes.Buffer
	if err := m.reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"schedd_sessions_open 2",
		"schedd_session_backlog_depth 0",
		"schedd_sessions_opened_total 5",
		"schedd_sessions_closed_total 2",
		"schedd_sessions_evicted_total 1",
		"schedd_session_arrivals_total 40",
		"schedd_session_replans_total 9",
		"schedd_session_replan_failures_total 1",
		"schedd_session_shed_tasks_total 3",
		`schedd_session_replan_latency_ms_bucket{le="0.25"} 1`,
		`schedd_session_replan_latency_ms_bucket{le="+Inf"} 2`,
		"schedd_session_replan_latency_ms_count 2",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, buf.String())
		}
	}
}
