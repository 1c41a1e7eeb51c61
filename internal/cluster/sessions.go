package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/server/wire"
)

// timeoutErr reports whether a proxy error is an attempt timeout rather
// than a connection failure. The distinction drives migration policy: a
// dead backend refuses connections instantly, so a timeout means the
// backend is slow but alive — migrating its sessions would convert a
// load spike into a migration storm (every move re-restores and
// re-plans, adding more load). Slow attempts are relayed to the client
// as retryable 504s instead; only the health poll and hard connection
// errors move sessions.
func timeoutErr(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// routedSession is the router's soft state for one streaming session:
// where it lives, how it was created (restore needs the runtime knobs),
// and the last snapshot known to cover every acknowledged arrival. gen
// counts migrations; proxy paths record the generation they observed so
// a failure triggers at most one migration per generation.
type routedSession struct {
	id     string
	create wire.SessionCreateRequest

	// The fields below are guarded by Router.mu. Migration (a slow
	// operation that must not hold the lock) is serialized by the
	// migrating flag plus Router.cond; readers that must not block on a
	// migration in flight — the SSE pump — wait on genCh instead.
	home      *backend
	gen       int64
	genCh     chan struct{} // closed when gen bumps
	snap      *wire.SessionSnapshot
	migrating bool
	closed    bool

	// hubEpoch identifies the backend event hub serving this session's
	// stream. A migration restores onto a fresh hub (epoch bumps: the new
	// stream starts at the restore point, everything it sends is new); a
	// re-adoption after backend recovery keeps the SAME hub identity
	// (epoch unchanged: the recovered backend replays its journal-seeded
	// ring, and the pump must dedupe those replays by backend sequence).
	hubEpoch int64
}

func (rt *Router) lookup(id string) *routedSession {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sessions[id]
}

func (rt *Router) forget(id string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.sessions, id)
}

// location atomically reads the session's current placement.
func (rt *Router) location(s *routedSession) (home *backend, gen int64, genCh chan struct{}, closed bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return s.home, s.gen, s.genCh, s.closed
}

// locationEpoch is location plus the hub epoch (SSE pump only).
func (rt *Router) locationEpoch(s *routedSession) (home *backend, gen, epoch int64, genCh chan struct{}, closed bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return s.home, s.gen, s.hubEpoch, s.genCh, s.closed
}

// setSnapshot caches snap if the session is still in the observed
// generation (a migration invalidates in-flight refreshes: the restored
// session's own snapshots supersede them).
func (rt *Router) setSnapshot(s *routedSession, gen int64, snap *wire.SessionSnapshot) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if s.gen == gen && !s.closed {
		s.snap = snap
	}
}

// handleSessionCreate mints (or adopts) a session ID, places it on its
// rendezvous backend, and creates it there under that fixed ID. The
// preference list doubles as the failover order when the top choice is
// unreachable.
func (rt *Router) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		retryAfter(w, 1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "router is draining")
		return
	}
	var req wire.SessionCreateRequest
	if err := decodeStrict(w, r, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	id := req.ID
	if id == "" {
		id = newID()
	}
	req.ID = id

	// Reserve the ID before any backend call so two concurrent creates
	// with the same client-chosen ID cannot both win.
	sess := &routedSession{id: id, create: req, genCh: make(chan struct{})}
	rt.mu.Lock()
	if rt.sessions[id] != nil {
		rt.mu.Unlock()
		wire.WriteError(w, http.StatusConflict, wire.CodeDuplicateSession, "session %q already routed", id)
		return
	}
	rt.sessions[id] = sess
	rt.mu.Unlock()

	body, err := json.Marshal(req)
	if err != nil {
		rt.forget(id)
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "encode: %v", err)
		return
	}
	order := rank(id, rt.healthy())
	var last *reply
	for _, b := range order {
		rp, err := rt.do(r.Context(), b, http.MethodPost, "/v1/sessions", r.URL.RawQuery, body)
		if err != nil {
			rt.cfg.Logger.Printf("msg=%q backend=%s session=%s err=%q", "create failed", b.name, id, err)
			continue
		}
		if retryableReply(rp.status) {
			last = rp
			continue
		}
		if rp.status != http.StatusCreated {
			rt.forget(id)
			rp.relay(w)
			return
		}
		rt.mu.Lock()
		sess.home = b
		rt.mu.Unlock()
		rt.metrics.sessionsCreated.Add(1)
		// Seed the snapshot cache so the session is migratable before its
		// first arrival; best-effort, the first arrival refresh fills it.
		if snap, err := rt.fetchSnapshot(r.Context(), b, id); err == nil {
			rt.setSnapshot(sess, 0, snap)
		}
		rt.cfg.Logger.Printf("msg=%q session=%s backend=%s", "session routed", id, b.name)
		rp.relay(w)
		return
	}
	rt.forget(id)
	if last != nil {
		last.relay(w)
		return
	}
	retryAfter(w, 1)
	wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, "no healthy backend")
}

// fetchSnapshot pulls a portable session snapshot from a backend.
func (rt *Router) fetchSnapshot(ctx context.Context, b *backend, id string) (*wire.SessionSnapshot, error) {
	rp, err := rt.do(ctx, b, http.MethodGet, "/v1/sessions/"+id+"/snapshot", "", nil)
	if err != nil {
		return nil, err
	}
	if rp.status != http.StatusOK {
		return nil, fmt.Errorf("snapshot status %d", rp.status)
	}
	var resp wire.SessionSnapshotResponse
	if err := json.Unmarshal(rp.body, &resp); err != nil {
		return nil, err
	}
	if resp.Snapshot == nil {
		return nil, fmt.Errorf("snapshot response missing payload")
	}
	return resp.Snapshot, nil
}

// handleSessionArrive proxies an arrival batch to the session's home
// backend. The commit point for an acknowledged arrival is the snapshot
// refresh that follows it: the ack is only relayed once a snapshot
// covering the arrival is cached (or the backend itself rejected the
// batch), so a crash after the ack can always be replayed from cached
// state without losing admitted tasks.
func (rt *Router) handleSessionArrive(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := rt.lookup(id)
	if sess == nil {
		wire.WriteError(w, http.StatusNotFound, wire.CodeNotFound, "unknown session %q", id)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "read body: %v", err)
		return
	}
	const arrivalAttempts = 4
	for attempt := 0; attempt < arrivalAttempts; attempt++ {
		home, gen, _, closed := rt.location(sess)
		if closed || home == nil {
			wire.WriteError(w, http.StatusNotFound, wire.CodeNotFound, "unknown session %q", id)
			return
		}
		rp, err := rt.do(r.Context(), home, http.MethodPost, "/v1/sessions/"+id+"/tasks", r.URL.RawQuery, body)
		if err != nil {
			home.br.Failure()
			if r.Context().Err() != nil {
				return // client gave up; nothing useful to write
			}
			if timeoutErr(err) {
				retryAfter(w, 1)
				wire.WriteError(w, http.StatusGatewayTimeout, wire.CodeTimeout, "backend %s timed out", home.name)
				return
			}
			rt.migrateFrom(sess, home, gen)
			continue
		}
		switch {
		case rp.status == http.StatusNotFound:
			// The backend evicted it (TTL): drop our routing entry too.
			rt.forget(id)
			rp.relay(w)
			return
		case retryableReply(rp.status) && rp.status != http.StatusTooManyRequests:
			// Backend draining or gateway trouble: move the session.
			rt.migrateFrom(sess, home, gen)
			continue
		}
		home.br.Success()
		if rp.status == http.StatusOK {
			snap, err := rt.fetchSnapshot(r.Context(), home, id)
			if err != nil && timeoutErr(err) && r.Context().Err() == nil {
				// One more try before the expensive rollback below: the
				// arrival is already admitted, so a retried fetch is far
				// cheaper than migrating and replaying the batch.
				snap, err = rt.fetchSnapshot(r.Context(), home, id)
			}
			if err != nil {
				// Acking without a covering snapshot would lose this
				// arrival if the backend dies: migrate (from the previous
				// snapshot) and replay the batch instead.
				rt.metrics.snapshotFails.Add(1)
				rt.migrateFrom(sess, home, gen)
				continue
			}
			rt.setSnapshot(sess, gen, snap)
		}
		rp.relay(w)
		return
	}
	retryAfter(w, 1)
	wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, "session %q unreachable after migration attempts", id)
}

// handleSessionGet proxies GET /v1/sessions/{id}/schedule.
func (rt *Router) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	rt.proxySessionOnce(w, r, http.MethodGet, "/schedule", false)
}

// handleSessionDelete proxies DELETE /v1/sessions/{id} — finish the
// session and return its final report — then drops the routing entry.
func (rt *Router) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	rt.proxySessionOnce(w, r, http.MethodDelete, "", true)
}

// proxySessionOnce forwards a session subresource request to the home
// backend with one migrate-and-retry round.
func (rt *Router) proxySessionOnce(w http.ResponseWriter, r *http.Request, method, suffix string, terminal bool) {
	id := r.PathValue("id")
	sess := rt.lookup(id)
	if sess == nil {
		wire.WriteError(w, http.StatusNotFound, wire.CodeNotFound, "unknown session %q", id)
		return
	}
	for attempt := 0; attempt < 3; attempt++ {
		home, gen, _, closed := rt.location(sess)
		if closed || home == nil {
			wire.WriteError(w, http.StatusNotFound, wire.CodeNotFound, "unknown session %q", id)
			return
		}
		// The terminal DELETE runs the clairvoyant-optimum solve on the
		// backend; under load it can legitimately outlast any fixed proxy
		// timeout, and cutting it off only to retry re-runs the same
		// expensive solve. Bound it by the client's context alone.
		timeout := rt.cfg.Timeout
		if terminal {
			timeout = 0
		}
		rp, err := rt.doTimeout(r.Context(), timeout, home, method, "/v1/sessions/"+id+suffix, r.URL.RawQuery, nil)
		if err != nil {
			home.br.Failure()
			if r.Context().Err() != nil {
				return // client gave up; nothing useful to write
			}
			if timeoutErr(err) {
				retryAfter(w, 1)
				wire.WriteError(w, http.StatusGatewayTimeout, wire.CodeTimeout, "backend %s timed out", home.name)
				return
			}
			rt.migrateFrom(sess, home, gen)
			continue
		}
		home.br.Success()
		if rp.status == http.StatusNotFound {
			rt.forget(id)
		} else if terminal && rp.status == http.StatusOK {
			rt.mu.Lock()
			sess.closed = true
			close(sess.genCh)
			sess.genCh = make(chan struct{})
			delete(rt.sessions, id)
			rt.mu.Unlock()
			rt.metrics.sessionsFinished.Add(1)
		}
		rp.relay(w)
		return
	}
	retryAfter(w, 1)
	wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, "session %q unreachable", id)
}

// readBody buffers a request body under the proxy cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
}

// decodeStrict mirrors the backend's strict JSON decoding so router
// rejections match schedd rejections byte-for-byte in spirit.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("decode: trailing data after JSON body")
	}
	return nil
}

// migrationWait bounds how long a stream waits for a session to land on
// a new backend before giving up on resume.
func (rt *Router) migrationWait() time.Duration {
	d := 4 * rt.cfg.Timeout
	if d < 5*time.Second {
		d = 5 * time.Second
	}
	return d
}
