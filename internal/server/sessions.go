package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/check"
	"repro/internal/dispatch"
	"repro/internal/journal"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/segjson"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// sessionSolve adapts the server's verified solve pipeline into a
// dispatch.SolveFunc: every residual re-plan of a streaming session
// passes the same admission gate, per-attempt timeout, fault-injection
// points, validator guardrail, and per-algorithm circuit breaker as a
// one-shot POST /v1/schedule. There is no fallback chain here — a
// failed residual solve is the session's to retry or shed, and swapping
// policies mid-session would corrupt its energy accounting. A session
// serves no execution profile, so its audit derives none.
func (s *Server) sessionSolve(algorithm string) (dispatch.SolveFunc, error) {
	entry, ok := check.Lookup(algorithm)
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", errUnknownAlgorithm, algorithm, check.Names())
	}
	return func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
		req := &wire.ScheduleRequest{Algorithm: algorithm, Cores: m, Tasks: ts}
		res, _ := s.guardedSolve(ctx, entry, req, pm, false)
		return res.sched, res.energy, res.err
	}, nil
}

// sessionHooks wires a session's replan/shed observations into the
// server metrics.
func (s *Server) sessionHooks() dispatch.Hooks {
	return dispatch.Hooks{
		Replan: func(latency time.Duration, err error) {
			s.metrics.sessionReplans.Add(1)
			s.metrics.replanMS.Observe(float64(latency) / float64(time.Millisecond))
			if err != nil {
				s.metrics.sessionReplanErrors.Add(1)
			}
		},
		Shed: func(n int) { s.metrics.sessionSheds.Add(int64(n)) },
		// Called with the session mutex held: log only, never call back
		// into the session. Fires once, when the journal first breaks.
		JournalError: func(err error) {
			s.cfg.Logger.Printf("msg=%q err=%q", "session journal degraded", err.Error())
		},
	}
}

// openKind says how a session comes to life: it picks the metrics, the
// log line and what a failure does with the session's log.
type openKind int

const (
	openCreate  openKind = iota // POST /v1/sessions
	openRestore                 // POST /v1/sessions/restore
	openRecover                 // journal recovery at startup
)

// sessionOpen is one session coming to life.
type sessionOpen struct {
	kind      openKind
	id        string
	algorithm string
	// debounceMS, backlog and skipRatio are the runtime knobs; a zero
	// backlog selects Config.SessionBacklog.
	debounceMS float64
	backlog    int
	skipRatio  bool
	// build makes the session from its runtime config: dispatch.New for
	// a create, dispatch.Restore for a restore or a recovery.
	build func(dispatch.Config) (*dispatch.Session, error)
	// logFields end the log line written once the session is live.
	logFields string
}

// journalError is a failure to open a session's log: the server's
// fault, not the request's.
type journalError struct{ err error }

func (e journalError) Error() string { return e.err.Error() }

// openSession is the one path that brings a session to life. It
// resolves the residual policy through the verified solve pipeline,
// builds the runtime config, opens the session's log when journaling
// is on, then builds the session and adopts it under o.id. On failure
// nothing stays open. A create or a restore also removes the log it
// opened, so a refused session cannot come back on restart; a recovery
// keeps its log for forensics. It returns the session's backlog bound.
func (s *Server) openSession(o sessionOpen) (int, error) {
	solve, err := s.sessionSolve(o.algorithm)
	if err != nil {
		return 0, err
	}
	backlog := o.backlog
	if backlog == 0 {
		backlog = s.cfg.SessionBacklog
	}
	backlog = min(backlog, s.cfg.MaxTasks)
	cfg := dispatch.Config{
		Algorithm: o.algorithm,
		Debounce:  time.Duration(o.debounceMS * float64(time.Millisecond)),
		Backlog:   backlog,
		Solve:     solve,
		Hooks:     s.sessionHooks(),
		SkipRatio: o.skipRatio,
	}
	var jw *journal.Writer
	if st := s.journalStore(); st != nil {
		jw, err = st.Writer(o.id)
		switch {
		case errors.Is(err, journal.ErrWriterOpen):
			return 0, fmt.Errorf("%w: %s", dispatch.ErrDuplicateSession, o.id)
		case err != nil:
			return 0, journalError{err}
		}
		cfg.Journal = s.metered(jw)
	}
	sess, err := o.build(cfg)
	if err == nil {
		err = s.sessions.Adopt(o.id, sess)
	}
	if err != nil {
		switch {
		case jw == nil:
		case o.kind == openRecover:
			jw.Close()
		default:
			s.dropJournal(o.id)
		}
		return 0, err
	}
	msg := "session created"
	switch o.kind {
	case openCreate:
		s.metrics.sessionsOpened.Add(1)
	case openRestore:
		msg = "session restored"
		s.metrics.sessionsOpened.Add(1)
		s.metrics.sessionsRestored.Add(1)
	case openRecover:
		msg = "session recovered"
		s.metrics.sessionsRecovered.Add(1)
	}
	s.cfg.Logger.Printf("msg=%q session=%s algorithm=%q cores=%d backlog=%d%s",
		msg, o.id, o.algorithm, sess.Cores(), backlog, o.logFields)
	return backlog, nil
}

// writeOpenError answers a create or a restore that openSession
// refused, reporting false when the refusal is the request's own fault
// and the caller's to word.
func writeOpenError(w http.ResponseWriter, err error) bool {
	var jerr journalError
	switch {
	case errors.Is(err, errUnknownAlgorithm):
		writeErrorFor(w, http.StatusNotFound, err)
	case errors.Is(err, dispatch.ErrTooManySessions):
		wire.RetryAfter(w, 1)
		writeErrorFor(w, http.StatusTooManyRequests, err)
	case errors.Is(err, dispatch.ErrDuplicateSession):
		writeErrorFor(w, http.StatusConflict, err)
	case errors.Is(err, dispatch.ErrSessionClosed): // manager draining
		writeDraining(w)
	case errors.As(err, &jerr): // its text names the journal already
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "%v", jerr.err)
	default:
		return false
	}
	return true
}

// writeInvalidID answers a create or a restore whose session ID
// dispatch.ValidID rejects.
func writeInvalidID(w http.ResponseWriter, id string) {
	wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
		"invalid session id %q: want 1 to 64 letters, digits, '-' or '_'", id)
}

// handleSessionCreate serves POST /v1/sessions.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req wire.SessionCreateRequest
	if err := wire.DecodeStrict(w, r, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if err := checkCores(req.Cores); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	pm, err := req.Model.Model()
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if req.DebounceMS < 0 || req.Backlog < 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "debounce_ms and backlog must be non-negative")
		return
	}
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = dispatch.DefaultAlgorithm
	}
	// A caller-fixed ID is the cluster router's shard placement.
	id := req.ID
	if id == "" {
		id = dispatch.NewID()
	} else if !dispatch.ValidID(id) {
		writeInvalidID(w, id)
		return
	}
	backlog, err := s.openSession(sessionOpen{
		kind:       openCreate,
		id:         id,
		algorithm:  algorithm,
		debounceMS: req.DebounceMS,
		backlog:    req.Backlog,
		skipRatio:  req.SkipRatio,
		build: func(cfg dispatch.Config) (*dispatch.Session, error) {
			cfg.Cores, cfg.Model = req.Cores, pm
			return dispatch.New(cfg)
		},
	})
	if err != nil {
		if !writeOpenError(w, err) {
			wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		}
		return
	}
	wire.WriteJSON(w, http.StatusCreated, wire.SessionCreateResponse{
		Version:   wire.Version,
		ID:        id,
		Algorithm: algorithm,
		Cores:     req.Cores,
		Backlog:   backlog,
	})
}

// session resolves the {id} path value, writing 404 when unknown.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (string, *dispatch.Session) {
	id := r.PathValue("id")
	sess := s.sessions.Get(id)
	if sess == nil {
		wire.WriteError(w, http.StatusNotFound, wire.CodeNotFound, "unknown session %q", id)
		return id, nil
	}
	return id, sess
}

// handleSessionArrive serves POST /v1/sessions/{id}/tasks: admit one
// arrival batch at virtual time `at`. A fully-shed batch answers 429 so
// clients experience backlog pushback exactly like admission-queue
// overload; partial admission is a 200 reporting both counts.
func (s *Server) handleSessionArrive(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	_, sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req wire.ArrivalRequest
	if err := wire.DecodeStrict(w, r, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if len(req.Tasks) == 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "arrival batch is empty")
		return
	}
	if s.cfg.MaxTasks > 0 && len(req.Tasks) > s.cfg.MaxTasks {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			"arrival batch has %d tasks, limit is %d", len(req.Tasks), s.cfg.MaxTasks)
		return
	}
	// Batch task IDs are positional; the session assigns its own.
	req.Tasks.Renumber()
	admitted, shed, err := sess.Arrive(r.Context(), req.At, req.Tasks)
	switch {
	case errors.Is(err, dispatch.ErrBadArrival):
		writeErrorFor(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, dispatch.ErrSessionClosed):
		wire.WriteError(w, http.StatusConflict, wire.CodeSessionClosed, "session already finished")
		return
	case err != nil:
		wire.WriteError(w, statusForCtxErr(err), errorCode(statusForCtxErr(err), err), "arrival interrupted: %v", err)
		return
	}
	s.metrics.sessionArrivals.Add(int64(admitted))
	resp := wire.ArrivalResponse{Admitted: admitted, Shed: shed, Stats: sess.Stats()}
	if admitted == 0 && shed > 0 {
		// Backlog pushback: same contract as admission-queue overload.
		s.metrics.overload.Add(1)
		wire.RetryAfter(w, 1)
		wire.WriteJSON(w, http.StatusTooManyRequests, resp)
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleSessionSchedule serves GET /v1/sessions/{id}/schedule. Pending
// arrivals are flushed first so the answer is deterministic: everything
// admitted so far is either committed or planned.
func (s *Server) handleSessionSchedule(w http.ResponseWriter, r *http.Request) {
	id, sess := s.session(w, r)
	if sess == nil {
		return
	}
	if err := sess.Flush(r.Context()); err != nil && !errors.Is(err, dispatch.ErrSessionClosed) {
		wire.WriteError(w, statusForCtxErr(err), errorCode(statusForCtxErr(err), err), "flush interrupted: %v", err)
		return
	}
	resp := wire.SessionScheduleResponse{
		Version:   wire.Version,
		ID:        id,
		Algorithm: sess.Algorithm(),
		Cores:     sess.Cores(),
		Stats:     sess.Stats(),
	}
	// Both are arrays, [] when empty.
	committed, planned := sess.Committed(), sess.Plan()
	if committed == nil {
		committed = []schedule.Segment{}
	}
	if planned == nil {
		planned = []schedule.Segment{}
	}
	if err := wire.WriteSpliced(w, http.StatusOK, &resp,
		wire.Splice{Key: "committed", Keys: segjson.Wire, Segs: committed},
		wire.Splice{Key: "planned", Keys: segjson.Wire, Segs: planned}); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "encode schedule: %v", err)
	}
}

// handleSessionDelete serves DELETE /v1/sessions/{id}: run the session
// to its horizon, account it against the clairvoyant optimum, tear the
// streams down, and return the final report.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id, sess := s.session(w, r)
	if sess == nil {
		return
	}
	f, err := sess.Finish(r.Context())
	if err != nil {
		// Context died mid-finish: the session survives for a retry.
		wire.WriteError(w, statusForCtxErr(err), errorCode(statusForCtxErr(err), err), "finish interrupted: %v", err)
		return
	}
	s.sessions.Remove(id)
	// The Finish above journaled the finish record; the session is fully
	// accounted, so its log is garbage now.
	s.dropJournal(id)
	s.metrics.sessionsClosed.Add(1)
	s.cfg.Logger.Printf("msg=%q session=%s energy=%g ratio=%g replans=%d completed=%d shed=%d",
		"session finished", id, f.RealizedEnergy, f.CompetitiveRatio, f.Replans, f.Completed, f.Shed)
	resp := wire.SessionFinalResponse{
		Version:          wire.Version,
		ID:               id,
		Algorithm:        sess.Algorithm(),
		Cores:            sess.Cores(),
		RealizedEnergy:   f.RealizedEnergy,
		OptimalEnergy:    f.OptimalEnergy,
		CompetitiveRatio: f.CompetitiveRatio,
		OptError:         f.OptError,
		Replans:          f.Replans,
		Commits:          f.Commits,
		Completed:        f.Completed,
		Shed:             f.Shed,
		Missed:           f.Missed,
		Horizon:          f.Horizon,
		Violations:       f.Violations,
		Tasks:            f.Tasks,
	}
	if f.Sim != nil {
		resp.Sim = wire.ProfileReport(*f.Sim)
	}
	var segs []schedule.Segment // no schedule: null
	if f.Schedule != nil {
		// A schedule's segments are an array, [] when there are none.
		if segs = f.Schedule.Segments; segs == nil {
			segs = []schedule.Segment{}
		}
	}
	if err := wire.WriteSpliced(w, http.StatusOK, &resp, wire.Splice{Key: "segments", Keys: segjson.Wire, Segs: segs}); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "encode final report: %v", err)
	}
}

// handleSessionEvents serves GET /v1/sessions/{id}/events as a
// Server-Sent-Events stream: the session's retained history replays
// first, then live events follow until the client disconnects or the
// session closes (DELETE, TTL eviction, drain) — which ends the stream
// cleanly.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	_, sess := s.session(w, r)
	if sess == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "streaming unsupported by connection")
		return
	}
	events, cancel, err := sess.Subscribe()
	if err != nil {
		wire.WriteError(w, http.StatusConflict, wire.CodeSessionClosed, "session closed")
		return
	}
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	enc := newSSEWriter(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-events:
			// Every event already queued goes out with this one, in one
			// write and one flush.
			var err error
			if open {
				open, err = enc.addQueued(ev, events)
			}
			if !open {
				// Session closed: emit a terminal comment so clients can
				// distinguish a graceful end from a dropped connection.
				enc.buf = append(enc.buf, ": stream closed\n\n"...)
			}
			if enc.flush() != nil {
				return // client went away mid-write
			}
			flusher.Flush()
			if !open || err != nil {
				return
			}
		}
	}
}

// handleSessionSnapshot serves GET /v1/sessions/{id}/snapshot: a
// portable point-in-time capture of the session (clock, committed
// prefix, per-task residual work, event sequence), restorable on any
// backend via POST /v1/sessions/restore. The session keeps running;
// pending arrivals are flushed first so the snapshot never contains an
// unplanned batch.
func (s *Server) handleSessionSnapshot(w http.ResponseWriter, r *http.Request) {
	id, sess := s.session(w, r)
	if sess == nil {
		return
	}
	snap, err := sess.Snapshot(r.Context())
	switch {
	case errors.Is(err, dispatch.ErrSessionClosed):
		wire.WriteError(w, http.StatusConflict, wire.CodeSessionClosed, "session already finished")
		return
	case err != nil:
		wire.WriteError(w, statusForCtxErr(err), errorCode(statusForCtxErr(err), err), "snapshot interrupted: %v", err)
		return
	}
	s.metrics.sessionSnapshots.Add(1)
	committed := snap.Committed
	snap.Committed = nil
	if err := wire.WriteSpliced(w, http.StatusOK, &wire.SessionSnapshotResponse{
		Version:  wire.Version,
		ID:       id,
		Snapshot: snap,
	}, wire.Splice{Key: "committed", Keys: segjson.Fields, Segs: committed}); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "encode snapshot: %v", err)
	}
}

// handleSessionRestore serves POST /v1/sessions/restore: rebuild a live
// session from a snapshot under its original ID. The restored session
// runs through the same verified solve pipeline (admission gate,
// breaker, guardrail) as natively created ones; its unfinished residual
// is re-planned before the response is written, so a follow-up arrival
// or SSE subscribe sees a session that is already live.
func (s *Server) handleSessionRestore(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req wire.SessionRestoreRequest
	if err := wire.DecodeStrict(w, r, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if req.ID == "" {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "restore requires the original session id")
		return
	}
	if !dispatch.ValidID(req.ID) {
		writeInvalidID(w, req.ID)
		return
	}
	if req.Snapshot == nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "restore requires a snapshot")
		return
	}
	// A snapshot without cores is one dispatch.Restore refuses (422);
	// one with too many is a request schedd does not serve.
	if req.Snapshot.Cores > MaxCores {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", checkCores(req.Snapshot.Cores))
		return
	}
	if req.DebounceMS < 0 || req.Backlog < 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "debounce_ms and backlog must be non-negative")
		return
	}
	backlog, err := s.openSession(sessionOpen{
		kind:       openRestore,
		id:         req.ID,
		algorithm:  req.Snapshot.Algorithm,
		debounceMS: req.DebounceMS,
		backlog:    req.Backlog,
		skipRatio:  req.SkipRatio,
		build: func(cfg dispatch.Config) (*dispatch.Session, error) {
			return dispatch.Restore(r.Context(), req.Snapshot, cfg)
		},
		logFields: fmt.Sprintf(" seq=%d", req.Snapshot.Seq),
	})
	if err != nil {
		if !writeOpenError(w, err) {
			wire.WriteError(w, http.StatusUnprocessableEntity, wire.CodeUnprocessable, "restore failed: %v", err)
		}
		return
	}
	wire.WriteJSON(w, http.StatusCreated, wire.SessionCreateResponse{
		Version:   wire.Version,
		ID:        req.ID,
		Algorithm: req.Snapshot.Algorithm,
		Cores:     req.Snapshot.Cores,
		Backlog:   backlog,
	})
}
