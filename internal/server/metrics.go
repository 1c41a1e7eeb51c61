package server

import (
	"sync/atomic"
	"time"

	"repro/internal/metric"
)

// Metrics is the server's observability surface, served as Prometheus
// text on GET /metrics. newMetrics registers every metric, and says
// what it counts, in the order they are written.
type Metrics struct {
	reg       metric.Registry
	responses metric.Responses

	requests, inflight                                                     atomic.Int64
	solves, solveErrors, verifyFailures, canceled, batches                 atomic.Int64
	overload, draining                                                     atomic.Int64
	cacheHits, cacheMisses, cacheCorruptions                               atomic.Int64
	solvePanics, degraded, fallbackFailures, breakerDenials                atomic.Int64
	sessionsOpened, sessionsClosed, sessionsEvicted, sessionsRestored      atomic.Int64
	sessionSnapshots, sessionArrivals, sessionReplans, sessionReplanErrors atomic.Int64
	sessionSheds, journalRecords, journalErrors                            atomic.Int64
	sessionsRecovered, sessionsRecoveryFailed                              atomic.Int64
	latencyMS, queueDepth, replanMS                                        *metric.Histogram
}

// newMetrics registers s's metrics. The gauges and the breaker and fault
// families read s's admission gate, breakers, fault injector and session
// manager at scrape time.
func newMetrics(s *Server) *Metrics {
	m := &Metrics{}
	start := time.Now()
	r := &m.reg
	r.GaugeFloat("schedd_uptime_seconds", func() float64 { return time.Since(start).Seconds() })
	r.Counter("schedd_requests_total", m.requests.Load) // accepted into handlers
	r.Gauge("schedd_inflight", m.inflight.Load)
	r.CounterFamily("schedd_responses_total", m.responses.Samples)
	r.Counter("schedd_solves_total", m.solves.Load) // solves executed (cache misses)
	r.Counter("schedd_batches_total", m.batches.Load)
	r.Counter("schedd_solve_errors_total", m.solveErrors.Load)
	r.Counter("schedd_verify_failures_total", m.verifyFailures.Load) // guardrail rejected a schedule
	r.Counter("schedd_canceled_total", m.canceled.Load)              // context ended before or during a solve
	r.Counter("schedd_overload_rejections_total", m.overload.Load)   // 429: queue full
	r.Counter("schedd_draining_rejections_total", m.draining.Load)   // 503: shutdown in progress
	r.Counter("schedd_cache_hits_total", m.cacheHits.Load)
	r.Counter("schedd_cache_misses_total", m.cacheMisses.Load)
	r.GaugeFloat("schedd_cache_hit_rate", m.CacheHitRate)
	r.Counter("schedd_cache_corruptions_detected_total", m.cacheCorruptions.Load) // checksum mismatches on Get
	r.Counter("schedd_solve_panics_total", m.solvePanics.Load)                    // recovered into errors
	r.Counter("schedd_degraded_responses_total", m.degraded.Load)                 // served by the fallback chain
	r.Counter("schedd_fallback_failures_total", m.fallbackFailures.Load)          // chain exhausted, 503 served
	r.Counter("schedd_breaker_denials_total", m.breakerDenials.Load)
	r.GaugeFamily("schedd_breaker_state", func(emit metric.Emit) {
		for _, st := range s.breakers.Stats() {
			emit(metric.Label("algorithm", st.Name), int64(st.State))
		}
	})
	r.CounterFamily("schedd_breaker_transitions_total", func(emit metric.Emit) {
		for _, st := range s.breakers.Stats() {
			alg := metric.Label("algorithm", st.Name)
			emit(alg+`,to="open"`, st.Opened)
			emit(alg+`,to="half-open"`, st.HalfOpened)
			emit(alg+`,to="closed"`, st.Closed)
		}
	})
	r.CounterFamily("schedd_faults_injected_total", func(emit metric.Emit) {
		for _, fc := range s.faults().Counts() {
			emit(metric.Label("point", string(fc.Point)), fc.Fired)
		}
	})
	r.Gauge("schedd_queue_depth", s.gate.depth)
	r.Gauge("schedd_sessions_open", func() int64 { return int64(s.sessions.Len()) })
	r.Gauge("schedd_session_backlog_depth", func() int64 { return int64(s.sessions.OpenBacklog()) })
	r.Counter("schedd_sessions_opened_total", m.sessionsOpened.Load)
	r.Counter("schedd_sessions_closed_total", m.sessionsClosed.Load)   // deleted by clients
	r.Counter("schedd_sessions_evicted_total", m.sessionsEvicted.Load) // by the idle-TTL janitor
	r.Counter("schedd_sessions_restored_total", m.sessionsRestored.Load)
	r.Counter("schedd_session_snapshots_total", m.sessionSnapshots.Load)
	r.Counter("schedd_session_arrivals_total", m.sessionArrivals.Load) // tasks admitted
	r.Counter("schedd_session_replans_total", m.sessionReplans.Load)
	r.Counter("schedd_session_replan_failures_total", m.sessionReplanErrors.Load)
	r.Counter("schedd_session_shed_tasks_total", m.sessionSheds.Load)
	r.Counter("schedd_journal_records_total", m.journalRecords.Load)
	r.Counter("schedd_journal_errors_total", m.journalErrors.Load) // failed appends (session degraded)
	r.Counter("schedd_sessions_recovered_total", m.sessionsRecovered.Load)
	r.Counter("schedd_sessions_recovery_failed_total", m.sessionsRecoveryFailed.Load)
	m.latencyMS = r.Histogram("schedd_latency_ms", metric.LatencyBucketsMS) // one-shot solve endpoints
	m.queueDepth = r.Histogram("schedd_queue_depth_at_admission", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	m.replanMS = r.Histogram("schedd_session_replan_latency_ms", metric.LatencyBucketsMS)
	return m
}

// CacheHitRate returns hits/(hits+misses), or 0 before any lookup.
func (m *Metrics) CacheHitRate() float64 {
	h, s := m.cacheHits.Load(), m.cacheMisses.Load()
	if h+s == 0 {
		return 0
	}
	return float64(h) / float64(h+s)
}
