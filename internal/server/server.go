// Package server is the serving layer of the repository: an HTTP JSON
// API that puts every registered scheduler behind a production-shaped
// daemon (cmd/schedd). The paper pitches the subinterval heuristic as
// cheap enough for practical systems (Section VI.D); this package is
// that deployment: admission-controlled solves with per-request
// deadlines, an LRU cache keyed on the bytes of each request, an in-band
// easched.Verify guardrail so an invalid schedule is never shipped, and
// first-class observability (request counters, latency and queue-depth
// histograms, structured per-request log lines, Chrome-trace responses,
// pprof).
//
// Endpoints:
//
//	POST /v1/schedule        solve an instance with a registered algorithm
//	POST /v1/schedule/batch  solve independent instances across the pool
//	POST /v1/feasible        max-flow feasibility + minimal uniform speed
//	GET  /v1/algorithms      registered algorithm names
//	GET  /healthz            liveness (always 200 while the process runs)
//	GET  /readyz             readiness (503 once draining or all breakers open)
//	GET  /metrics            Prometheus text metrics
//	     /debug/pprof/*      runtime profiles
//
// Streaming sessions (the live dispatch runtime, internal/dispatch):
//
//	POST   /v1/sessions               open a streaming scheduling session
//	POST   /v1/sessions/{id}/tasks    admit an arrival batch at a virtual time
//	GET    /v1/sessions/{id}/schedule committed prefix + current plan suffix
//	GET    /v1/sessions/{id}/events   SSE stream of replan/commit/shed events
//	GET    /v1/sessions/{id}/snapshot portable session state for migration
//	POST   /v1/sessions/restore       adopt a session from a snapshot
//	DELETE /v1/sessions/{id}          finish, account vs optimum, tear down
//
// Errors: every non-2xx response carries the unified envelope
// {"version":1,"error":{"code","message","retryable"}} (wire.ErrorEnvelope).
//
// Session re-plans run through the same verified solve pipeline
// (admission gate, timeout, validator guardrail, circuit breaker, fault
// injection) as one-shot solves. Shutdown drains every live session to
// its horizon before closing the event streams.
//
// One path opens a session, whether POST /v1/sessions creates it, POST
// /v1/sessions/restore rebuilds it from a snapshot, or Recover rebuilds
// it from its journal at startup: the same runtime config, the same log
// writer when Config.DataDir is set, the same adoption under the
// session limit. A create or restore that is refused leaves no log
// behind, so a restart never brings back a session the client was told
// it did not get; a session whose recovery fails keeps its log for
// forensics.
//
// Robustness: solver panics are recovered into typed errors, every
// registered algorithm sits behind a consecutive-failure circuit
// breaker with exponential half-open probes, and failed solves walk a
// fallback chain (requested algorithm → always-feasible baseline →
// 503) so a valid schedule is served whenever one exists; degraded
// responses carry degraded:true plus the fallback algorithm name. The
// internal/fault injection points (off by default) chaos-test all of
// it — see `make chaos`.
package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/dispatch"
	"repro/internal/fallback"
	"repro/internal/fault"
	"repro/internal/journal"
)

// Config tunes the service. The zero value is usable: sensible defaults
// are applied by New.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// Workers bounds concurrent solves (default GOMAXPROCS).
	Workers int
	// Queue bounds requests waiting for a worker before 429; 0 uses the
	// default (64) and a negative value allows no waiting at all.
	Queue int
	// CacheSize is the LRU solve-cache capacity; 0 uses the default
	// (1024) and a negative value disables caching.
	CacheSize int
	// SolveTimeout is the per-request solve deadline (default 5s;
	// negative disables).
	SolveTimeout time.Duration
	// MaxTasks rejects larger instances with 400 (default 10000).
	MaxTasks int
	// GraceTimeout bounds draining on shutdown (default 5s).
	GraceTimeout time.Duration
	// Logger receives one structured line per request; nil discards.
	Logger *log.Logger

	// FallbackAlgorithm is the always-feasible baseline the fallback
	// chain re-solves with when the requested algorithm fails (error,
	// panic, deadline blow, invalid schedule, open breaker). Empty
	// selects the default (fallback.Name, "MaxFreq"); FallbackNone
	// disables the chain.
	FallbackAlgorithm string
	// BreakerThreshold is the consecutive-failure count that opens an
	// algorithm's circuit breaker (default 5; negative disables
	// breakers).
	BreakerThreshold int
	// BreakerCooldown is the initial open-state cooldown before a
	// half-open probe (default 2s); each failed probe doubles it up to
	// BreakerMaxCooldown (default 30s).
	BreakerCooldown    time.Duration
	BreakerMaxCooldown time.Duration
	// Faults optionally injects failures for chaos testing (nil: use the
	// process-wide injector from internal/fault, itself nil — off — by
	// default).
	Faults *fault.Injector

	// SessionLimit bounds concurrently open streaming sessions (default
	// dispatch.DefaultMaxSessions).
	SessionLimit int
	// SessionTTL evicts sessions idle longer than this (0 disables the
	// TTL janitor; negative also disables).
	SessionTTL time.Duration
	// SessionBacklog is the default per-session unfinished-task bound
	// before load-shedding (0 uses dispatch.DefaultBacklog; always capped
	// by MaxTasks).
	SessionBacklog int

	// DataDir enables the durable session journal: every session's
	// lifecycle (create, arrivals, commit points, sheds, checkpoints,
	// finish) is logged to <DataDir>/sessions/<id> and recovered by
	// Recover on restart. Empty (the default) disables journaling.
	DataDir string
	// Fsync is the journal durability policy when DataDir is set
	// (journal.FsyncInterval — the zero value — by default).
	Fsync journal.Policy
}

// FallbackNone disables the graceful-degradation fallback chain.
const FallbackNone = "none"

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.Queue == 0:
		c.Queue = 64
	case c.Queue < 0:
		c.Queue = 0
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 1024
	case c.CacheSize < 0:
		c.CacheSize = 0
	}
	if c.SolveTimeout == 0 {
		c.SolveTimeout = 5 * time.Second
	}
	if c.MaxTasks <= 0 {
		c.MaxTasks = 10000
	}
	if c.GraceTimeout <= 0 {
		c.GraceTimeout = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	if c.FallbackAlgorithm == "" {
		c.FallbackAlgorithm = fallback.Name
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.BreakerMaxCooldown <= 0 {
		c.BreakerMaxCooldown = 30 * time.Second
	}
	if c.SessionLimit <= 0 {
		c.SessionLimit = dispatch.DefaultMaxSessions
	}
	if c.SessionTTL < 0 {
		c.SessionTTL = 0
	}
	if c.SessionBacklog <= 0 {
		c.SessionBacklog = dispatch.DefaultBacklog
	}
	if c.SessionBacklog > c.MaxTasks {
		c.SessionBacklog = c.MaxTasks
	}
	return c
}

// Server is the scheduling service: handlers plus the admission gate,
// solve cache, per-algorithm circuit breakers, and metrics they share.
type Server struct {
	cfg      Config
	gate     *gate
	cache    *solveCache
	breakers *breaker.Set
	metrics  *Metrics
	sessions *dispatch.Manager
	mux      *http.ServeMux
	draining atomic.Bool

	// journal is the durable session-log store (nil until Recover opens
	// it; always nil when Config.DataDir is empty). It owns the open
	// per-session log writers.
	journal *journal.Store
	jmu     sync.Mutex
}

// New builds a Server from cfg (zero value OK).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		gate:     newGate(cfg.Workers, cfg.Queue),
		cache:    newSolveCache(cfg.CacheSize),
		breakers: breaker.NewSet(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.BreakerMaxCooldown, nil),
		mux:      http.NewServeMux(),
	}
	s.sessions = dispatch.NewManager(dispatch.ManagerConfig{
		MaxSessions: cfg.SessionLimit,
		TTL:         cfg.SessionTTL,
		OnEvict: func(id string, _ *dispatch.Session) {
			s.metrics.sessionsEvicted.Add(1)
			// The eviction sealed the journal (finish record); the log is
			// garbage, drop it so a restart cannot resurrect the session.
			s.dropJournal(id)
			s.cfg.Logger.Printf("msg=%q session=%s", "session evicted (idle TTL)", id)
		},
	})
	s.metrics = newMetrics(s)

	s.mux.HandleFunc("/v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("/v1/schedule/batch", s.handleScheduleBatch)
	s.mux.HandleFunc("/v1/feasible", s.handleFeasible)
	s.mux.HandleFunc("/v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/sessions/restore", s.handleSessionRestore)
	s.mux.HandleFunc("POST /v1/sessions/{id}/tasks", s.handleSessionArrive)
	s.mux.HandleFunc("GET /v1/sessions/{id}/schedule", s.handleSessionSchedule)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.handleSessionSnapshot)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", &s.metrics.reg)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Close releases background resources (the session manager's TTL
// janitor, every open session, and the journal store) without draining.
// Journaled sessions get no finish record — exactly a crash's on-disk
// shape, so they are recovered on the next start. Tests that build a
// Server directly — bypassing ListenAndServe — should defer it.
func (s *Server) Close() {
	s.sessions.Close()
	s.closeJournalStore()
}

// faults returns the fault injector in effect: the per-server one when
// configured (tests), else the process-wide registry (cmd/schedd's
// -faults flag), else nil — injection off, the default.
func (s *Server) faults() *fault.Injector {
	if s.cfg.Faults != nil {
		return s.cfg.Faults
	}
	return fault.Active()
}

// Handler returns the full HTTP handler with request accounting and
// structured logging wrapped around every route.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.requests.Add(1)
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)

		status, bytes := s.metrics.responses.Serve(s.mux, w, r)

		elapsed := time.Since(start)
		if r.URL.Path == "/v1/schedule" || r.URL.Path == "/v1/schedule/batch" || r.URL.Path == "/v1/feasible" {
			s.metrics.latencyMS.Observe(float64(elapsed) / float64(time.Millisecond))
		}
		s.cfg.Logger.Printf("method=%s path=%s status=%d dur=%s bytes=%d",
			r.Method, r.URL.Path, status, elapsed.Round(time.Microsecond), bytes)
	})
}

// ListenAndServe serves until ctx is canceled, then drains: new solves
// are rejected with 503 while in-flight requests get GraceTimeout to
// finish.
func (s *Server) ListenAndServe(ctx context.Context) error {
	hs := &http.Server{Addr: s.cfg.Addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.cfg.Logger.Printf("msg=%q grace=%s sessions=%d", "draining", s.cfg.GraceTimeout, s.sessions.Len())
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.GraceTimeout)
	defer cancel()
	// Drain sessions first: every live session is flushed and run to its
	// horizon, then its event stream closes — which releases any SSE
	// handlers blocked on events, letting hs.Shutdown complete.
	s.sessions.Drain(shutCtx)
	// Every drained session wrote its finish record; closing the store
	// syncs and closes the writers so the logs are GC'd on next start.
	s.closeJournalStore()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
		return fmt.Errorf("server: shutdown: %w", err)
	}
	return nil
}
