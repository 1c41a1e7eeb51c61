package cluster

import (
	"sync/atomic"

	"repro/internal/metric"
)

// routerMetrics is the router's Prometheus-text surface. Per-backend
// families read the backend structs at scrape time; only router-level
// counters live here.
type routerMetrics struct {
	reg       metric.Registry
	responses metric.Responses
	proxyMS   *metric.Histogram

	sessionsCreated, sessionsFinished, migrations, migrationFails atomic.Int64
	readoptions, snapshotFails, streamResumes, retries            atomic.Int64
}

func newRouterMetrics(rt *Router) *routerMetrics {
	m := &routerMetrics{}
	perBackend := func(v func(b *backend) int64) func(metric.Emit) {
		return func(emit metric.Emit) {
			for _, b := range rt.backends {
				emit(metric.Label("backend", b.name), v(b))
			}
		}
	}
	r := &m.reg
	r.GaugeFamily("schedrouter_backend_up", perBackend(func(b *backend) int64 {
		if b.up.Load() {
			return 1
		}
		return 0
	}))
	r.GaugeFamily("schedrouter_backend_inflight", perBackend(func(b *backend) int64 { return b.inflight.Load() }))
	r.CounterFamily("schedrouter_backend_requests_total", perBackend(func(b *backend) int64 { return b.requests.Load() }))
	r.CounterFamily("schedrouter_backend_failures_total", perBackend(func(b *backend) int64 { return b.failures.Load() }))
	r.GaugeFamily("schedrouter_breaker_state", perBackend(func(b *backend) int64 { return int64(b.br.Stat(b.name).State) }))
	r.CounterFamily("schedrouter_breaker_opened_total", perBackend(func(b *backend) int64 { return b.br.Stat(b.name).Opened }))
	r.Gauge("schedrouter_sessions_routed", func() int64 { return int64(rt.sessionCount()) })
	r.Counter("schedrouter_sessions_created_total", m.sessionsCreated.Load)
	r.Counter("schedrouter_sessions_finished_total", m.sessionsFinished.Load)
	r.Counter("schedrouter_migrations_total", m.migrations.Load)
	r.Counter("schedrouter_migration_failures_total", m.migrationFails.Load)
	r.Counter("schedrouter_readoptions_total", m.readoptions.Load)
	r.Counter("schedrouter_snapshot_refresh_failures_total", m.snapshotFails.Load)
	r.Counter("schedrouter_stream_resumes_total", m.streamResumes.Load)
	r.Counter("schedrouter_proxy_retries_total", m.retries.Load)
	r.CounterFamily("schedrouter_responses_total", m.responses.Samples)
	m.proxyMS = r.Histogram("schedrouter_proxy_latency_ms", metric.LatencyBucketsMS)
	return m
}
