// Package cluster is the schedd routing tier: a single HTTP front door
// for a fleet of schedd backends. One-shot solves are load-balanced
// across healthy backends behind per-backend circuit breakers and
// bounded retries; streaming sessions are sharded by rendezvous hashing
// on the session ID and proxied through their home backend, including
// the SSE event stream. When a backend turns unhealthy mid-session the
// router migrates its sessions over the dispatch snapshot/restore path
// and resumes the event stream with no client-visible sequence gaps.
//
// The router holds no scheduling state of its own: everything it knows
// about a session (home backend, creation knobs, last good snapshot) is
// soft state that can be rebuilt, which is what makes migration safe to
// retry and the router itself cheap to restart.
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes the router. The zero value of every field is
// usable; Backends is the only one without a sensible default.
type Config struct {
	// Addr is the listen address for ListenAndServe.
	Addr string
	// Backends is the list of schedd base URLs (e.g. http://127.0.0.1:8081).
	Backends []string
	// Timeout bounds each proxied request (default 10s). SSE streams are
	// exempt: they live until either side closes.
	Timeout time.Duration
	// HealthInterval is the readyz polling period (default 500ms).
	HealthInterval time.Duration
	// HealthFailures is the number of consecutive readyz failures that
	// mark a backend down and trigger session migration (default 2).
	HealthFailures int
	// Retries is the number of additional backends tried after a
	// retryable one-shot failure (default: every other backend once).
	Retries int
	// BreakerThreshold opens a backend's breaker after that many
	// consecutive proxy failures (0 = default 5, negative disables).
	BreakerThreshold int
	// BreakerCooldown and BreakerMaxCooldown shape the open-breaker
	// backoff (defaults 2s and 30s).
	BreakerCooldown    time.Duration
	BreakerMaxCooldown time.Duration
	// GraceTimeout bounds the drain on shutdown (default 5s).
	GraceTimeout time.Duration
	// RecoveryGrace, when positive, makes the router wait up to this long
	// for a down backend to come back with its journaled sessions
	// recovered (schedd -data-dir) before migrating them. A backend that
	// answers the probe without the session (no journal, recovery failed)
	// is migrated from immediately. 0 (the default) migrates immediately,
	// the pre-journal behavior.
	RecoveryGrace time.Duration
	// Logger receives structured log lines (default: discard).
	Logger *log.Logger
	// Transport overrides the proxy transport (tests).
	Transport http.RoundTripper
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthFailures <= 0 {
		c.HealthFailures = 2
	}
	if c.Retries <= 0 {
		c.Retries = len(c.Backends) - 1
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
	if c.GraceTimeout <= 0 {
		c.GraceTimeout = 5 * time.Second
	}
	if c.RecoveryGrace < 0 {
		c.RecoveryGrace = 0
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Router is the routing tier. Create with New.
type Router struct {
	cfg      Config
	backends []*backend
	client   *http.Client // SSE-safe: no global timeout, per-request contexts
	mux      *http.ServeMux
	metrics  *routerMetrics
	draining atomic.Bool

	mu       sync.Mutex
	cond     *sync.Cond // signals migration completion (see migrateFrom)
	sessions map[string]*routedSession

	stopOnce   sync.Once
	stopCh     chan struct{} // closed on Close/drain: ends SSE pumps
	healthDone chan struct{}
}

// New builds a router over the given backends and starts the health
// poller. Close releases it.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	rt := &Router{
		cfg:        cfg,
		client:     &http.Client{Transport: cfg.Transport},
		mux:        http.NewServeMux(),
		sessions:   make(map[string]*routedSession),
		stopCh:     make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	rt.cond = sync.NewCond(&rt.mu)
	rt.metrics = newRouterMetrics(rt)
	for _, raw := range cfg.Backends {
		b, err := newBackend(raw, cfg)
		if err != nil {
			return nil, err
		}
		rt.backends = append(rt.backends, b)
	}
	if err := dupBackendCheck(rt.backends); err != nil {
		return nil, err
	}
	rt.routes()
	go rt.healthLoop()
	return rt, nil
}

func dupBackendCheck(bs []*backend) error {
	seen := make(map[string]bool, len(bs))
	for _, b := range bs {
		if seen[b.name] {
			return fmt.Errorf("cluster: duplicate backend %q", b.name)
		}
		seen[b.name] = true
	}
	return nil
}

func (rt *Router) routes() {
	rt.mux.HandleFunc("/v1/schedule", rt.handleOneShot)
	rt.mux.HandleFunc("/v1/schedule/batch", rt.handleBatch)
	rt.mux.HandleFunc("/v1/feasible", rt.handleOneShot)
	rt.mux.HandleFunc("/v1/algorithms", rt.handleOneShot)
	rt.mux.HandleFunc("POST /v1/sessions", rt.handleSessionCreate)
	rt.mux.HandleFunc("POST /v1/sessions/{id}/tasks", rt.handleSessionArrive)
	rt.mux.HandleFunc("GET /v1/sessions/{id}/schedule", rt.handleSessionGet)
	rt.mux.HandleFunc("GET /v1/sessions/{id}/events", rt.handleSessionEvents)
	rt.mux.HandleFunc("DELETE /v1/sessions/{id}", rt.handleSessionDelete)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	rt.mux.Handle("/metrics", &rt.metrics.reg)
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.metrics.responses.Serve(rt.mux, w, r)
	})
}

// Close stops the health poller and terminates live SSE pumps. Idempotent.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	<-rt.healthDone
}

// ListenAndServe serves until ctx is canceled, then drains: new work is
// rejected with 503, streams are closed, and in-flight proxies get the
// grace timeout to finish.
func (rt *Router) ListenAndServe(ctx context.Context) error {
	hs := &http.Server{Addr: rt.cfg.Addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	rt.draining.Store(true)
	rt.cfg.Logger.Printf("msg=%q grace=%s sessions=%d", "draining", rt.cfg.GraceTimeout, rt.sessionCount())
	rt.Close() // ends SSE pumps so Shutdown can complete
	shutCtx, cancel := context.WithTimeout(context.Background(), rt.cfg.GraceTimeout)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
		return fmt.Errorf("cluster: shutdown: %w", err)
	}
	return nil
}

func (rt *Router) sessionCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.sessions)
}

// healthy returns the live backend set (breaker state is consulted at
// pick time, not here: a breaker-open backend is still "up").
func (rt *Router) healthy() []*backend {
	out := make([]*backend, 0, len(rt.backends))
	for _, b := range rt.backends {
		if b.up.Load() {
			out = append(out, b)
		}
	}
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case rt.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case len(rt.healthy()) == 0:
		http.Error(w, "no healthy backend", http.StatusServiceUnavailable)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	}
}

// newID mints a 16-hex-char session ID, the value rendezvous-hashed for
// shard placement.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("cluster: rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
