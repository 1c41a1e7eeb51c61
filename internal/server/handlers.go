package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/easched"
	"repro/internal/check"
	"repro/internal/dispatch"
	"repro/internal/fault"
	"repro/internal/feas"
	"repro/internal/interval"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
	"repro/internal/trace"
)

// writeJSON emits v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Sentinel causes threaded through error chains so errorCode can
// classify failures that have no typed sentinel of their own.
var (
	errBreakerOpen      = errors.New("circuit breaker open")
	errUnknownAlgorithm = errors.New("unknown algorithm")
)

// errorCode maps a failure to its wire error code, preferring the
// easched/dispatch error taxonomy over the blunt HTTP status.
func errorCode(status int, err error) wire.ErrorCode {
	switch {
	case errors.Is(err, errBreakerOpen):
		return wire.CodeBreakerOpen
	case errors.Is(err, errUnknownAlgorithm):
		return wire.CodeUnknownAlgorithm
	case errors.Is(err, easched.ErrInfeasible):
		return wire.CodeInfeasible
	case errors.Is(err, easched.ErrSolverPanic):
		return wire.CodeSolverPanic
	case errors.Is(err, easched.ErrInvalidSchedule):
		return wire.CodeInvalidSchedule
	case errors.Is(err, easched.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return wire.CodeTimeout
	case errors.Is(err, context.Canceled):
		return wire.CodeCanceled
	case errors.Is(err, dispatch.ErrTooManySessions):
		return wire.CodeOverloaded
	case errors.Is(err, dispatch.ErrSessionClosed):
		return wire.CodeSessionClosed
	case errors.Is(err, dispatch.ErrDuplicateSession):
		return wire.CodeDuplicateSession
	case errors.Is(err, dispatch.ErrBadArrival):
		return wire.CodeBadRequest
	}
	switch status {
	case http.StatusBadRequest:
		return wire.CodeBadRequest
	case http.StatusNotFound:
		return wire.CodeNotFound
	case http.StatusMethodNotAllowed:
		return wire.CodeMethodNotAllowed
	case http.StatusConflict:
		return wire.CodeSessionClosed
	case http.StatusUnprocessableEntity:
		return wire.CodeUnprocessable
	case http.StatusTooManyRequests:
		return wire.CodeOverloaded
	case http.StatusGatewayTimeout:
		return wire.CodeTimeout
	case http.StatusInternalServerError:
		return wire.CodeInternal
	default:
		return wire.CodeUnavailable
	}
}

// writeErrorFor writes the error envelope with the code derived from
// (status, err).
func writeErrorFor(w http.ResponseWriter, status int, err error) {
	wire.WriteError(w, status, errorCode(status, err), "%v", err)
}

// retryAfter marks an overload/draining response as retryable.
func retryAfter(w http.ResponseWriter, seconds int) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", seconds))
}

// solveResult is one solver outcome: the verified schedule, its
// reported energy and the execution profile its guardrail audit
// derived, or the error.
type solveResult struct {
	sched   *schedule.Schedule
	energy  float64
	profile check.Profile
	err     error
}

// runSolve executes a registered scheduler under ctx through
// check.Entry.RunAudited, which contains solver panics (real or
// injected) as errors matching easched.ErrSolverPanic and rejects any
// schedule the universal validator does not accept with an error
// matching easched.ErrInvalidSchedule. Runners observe ctx and abort
// between solver passes, so a canceled request frees its worker slot
// promptly instead of holding it until convergence; the select below
// additionally unblocks the handler immediately, and the slot is
// released only when the solver goroutine actually returns.
func runSolve(ctx context.Context, in *fault.Injector, e check.Entry, ts task.Set, m int, pm power.Model, done func()) solveResult {
	if in != nil {
		run := e.Run
		e.Run = func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			if err := in.BeforeSolve(ctx); err != nil {
				return nil, 0, err
			}
			return run(ctx, ts, m, pm)
		}
	}
	ch := make(chan solveResult, 1)
	go func() {
		defer done()
		s, energy, profile, err := e.RunAudited(ctx, ts, m, pm)
		ch <- solveResult{sched: s, energy: energy, profile: profile, err: err}
	}()
	select {
	case res := <-ch:
		return res
	case <-ctx.Done():
		return solveResult{err: ctx.Err()}
	}
}

// attempt pushes one (algorithm, instance) solve through admission,
// the per-attempt timeout, and the validator guardrail, and reports the
// outcome with its HTTP-style status.
func (s *Server) attempt(reqCtx context.Context, entry check.Entry, req *wire.ScheduleRequest, pm power.Model) (solveResult, int) {
	s.metrics.queueDepth.Observe(float64(s.gate.depth()))
	ctx := reqCtx
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	if err := s.gate.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, errOverload):
			s.metrics.overload.Add(1)
			return solveResult{err: fmt.Errorf("admission queue full, retry later")}, http.StatusTooManyRequests
		default:
			s.metrics.canceled.Add(1)
			return solveResult{err: fmt.Errorf("request ended while queued: %w", err)}, statusForCtxErr(err)
		}
	}
	// The slot is released by the solve goroutine itself (see runSolve),
	// so an abandoned solve keeps its worker until it actually returns.
	s.metrics.solves.Add(1)
	res := runSolve(ctx, s.faults(), entry, req.Tasks, req.Cores, pm, s.gate.release)
	// The validator_reject fault point simulates a guardrail rejection of
	// a good schedule, exercising the same degradation path.
	if res.err == nil && s.faults().Should(fault.ValidatorReject) {
		res.err = fmt.Errorf("%w: %v (+0 more)", easched.ErrInvalidSchedule,
			check.Violation{Kind: check.KindEnergy, Task: -1, Detail: "injected validator rejection"})
	}
	switch {
	case res.err == nil:
		return res, http.StatusOK
	case errors.Is(res.err, context.DeadlineExceeded), errors.Is(res.err, context.Canceled):
		s.metrics.canceled.Add(1)
		return solveResult{err: fmt.Errorf("solve aborted: %w", res.err)}, statusForCtxErr(res.err)
	case errors.Is(res.err, easched.ErrInvalidSchedule):
		// Guardrail: never ship a schedule the universal validator rejects.
		s.metrics.verifyFailures.Add(1)
		return solveResult{err: fmt.Errorf("produced schedule failed verification: %w", res.err)},
			http.StatusInternalServerError
	case errors.Is(res.err, easched.ErrSolverPanic):
		s.metrics.solvePanics.Add(1)
	default:
		s.metrics.solveErrors.Add(1)
	}
	return solveResult{err: fmt.Errorf("solve failed: %w", res.err)}, statusForSolveErr(res.err)
}

// guardedSolve is one solve attempt behind the algorithm's circuit
// breaker: a denial is a 503 wrapping errBreakerOpen, and the attempt's
// outcome is recorded on the breaker. The one-shot primary attempt, its
// fallback and every session re-plan go through here.
func (s *Server) guardedSolve(ctx context.Context, entry check.Entry, req *wire.ScheduleRequest, pm power.Model) (solveResult, int) {
	br := s.breakers.Get(entry.Name)
	ok, probe := br.Admit()
	if !ok {
		s.metrics.breakerDenials.Add(1)
		return solveResult{err: fmt.Errorf("%w for algorithm %q", errBreakerOpen, entry.Name)},
			http.StatusServiceUnavailable
	}
	res, status := s.attempt(ctx, entry, req, pm)
	switch {
	case res.err == nil:
		br.Success()
	case breakerCountable(status, res.err):
		br.Failure()
	case probe:
		// The probe's outcome says nothing about the algorithm
		// (cancellation / admission pushback): release the slot, or
		// the stuck `probing` flag would deny this algorithm forever.
		br.ProbeAborted()
	}
	return res, status
}

// fallbackEligible reports whether a failed primary attempt should walk
// the fallback chain: solver errors, panics, deadline blows, and
// guardrail rejections are recoverable by re-solving with the baseline;
// client-side failures (cancellation, overload) are not.
func fallbackEligible(status int, err error) bool {
	switch status {
	case http.StatusTooManyRequests:
		return false // admission pushback, not an algorithm failure
	}
	if errors.Is(err, context.Canceled) {
		return false // the client is gone
	}
	return status >= 500 || status == http.StatusUnprocessableEntity
}

// breakerCountable reports whether a failed attempt is the algorithm's
// fault (and should count toward opening its circuit breaker), as
// opposed to client cancellation or admission pushback.
func breakerCountable(status int, err error) bool {
	return fallbackEligible(status, err) && status != http.StatusServiceUnavailable
}

// solveOne runs the full per-instance pipeline — cache lookup (with
// integrity check), circuit breaker, admission, solve under a per-item
// timeout, validator guardrail, fallback chain, encode, cache fill — and
// returns the encoded reply plus the realized schedule (nil exactly when
// the reply is a cache hit), or an HTTP-style status and error. Shared
// by POST /v1/schedule and each item of POST /v1/schedule/batch.
func (s *Server) solveOne(reqCtx context.Context, req *wire.ScheduleRequest) (*wire.EncodedSchedule, *schedule.Schedule, int, error) {
	if err := validateInstance(req.Tasks, req.Cores, s.cfg.MaxTasks); err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	pm, err := req.Model.Model()
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	entry, ok := check.Lookup(req.Algorithm)
	if !ok {
		return nil, nil, http.StatusNotFound,
			fmt.Errorf("%w %q (have %v)", errUnknownAlgorithm, req.Algorithm, check.Names())
	}

	// Transient-I/O fault point: a retryable 503, upstream of everything.
	if ferr := s.faults().Err(fault.IOError); ferr != nil {
		return nil, nil, http.StatusServiceUnavailable,
			fmt.Errorf("transient backend error: %w", ferr)
	}

	key := solveKey(req.Algorithm, req.Tasks, req.Cores, pm)
	if s.faults().Should(fault.CacheCorrupt) {
		s.cache.Corrupt(key)
	}
	if enc, ok, corrupted := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		return enc, nil, http.StatusOK, nil
	} else if corrupted {
		// Detected corruption degrades to a re-solve, never to a wrong
		// answer: the entry was dropped, so this is now a clean miss.
		s.metrics.cacheCorruptions.Add(1)
	}
	s.metrics.cacheMisses.Add(1)

	res, primaryStatus := s.guardedSolve(reqCtx, entry, req, pm)
	primaryErr := res.err
	if primaryErr == nil {
		enc, err := encodeResponse(req, res, "")
		if err != nil {
			return nil, nil, http.StatusInternalServerError, err
		}
		s.cache.Put(key, enc)
		return enc, res.sched, http.StatusOK, nil
	}
	if !fallbackEligible(primaryStatus, primaryErr) {
		return nil, nil, primaryStatus, primaryErr
	}

	// Fallback chain: requested algorithm failed (or its breaker is
	// open); re-solve with the configured always-feasible baseline so a
	// valid schedule is served whenever one exists. Degraded responses
	// are not cached: the primary may recover, and its cache key must
	// not pin the baseline's answer.
	fb := s.fallbackEntry(req.Algorithm)
	if fb == nil {
		return nil, nil, primaryStatus, primaryErr
	}
	res, _ = s.guardedSolve(reqCtx, *fb, req, pm)
	if err := res.err; err != nil {
		s.metrics.fallbackFailures.Add(1)
		if errors.Is(err, errBreakerOpen) {
			return nil, nil, http.StatusServiceUnavailable,
				fmt.Errorf("%v; fallback %q %w", primaryErr, fb.Name, errBreakerOpen)
		}
		return nil, nil, http.StatusServiceUnavailable,
			fmt.Errorf("%v; fallback %q also failed: %v", primaryErr, fb.Name, err)
	}
	s.metrics.degraded.Add(1)
	s.cfg.Logger.Printf("msg=%q algorithm=%q fallback=%q cause=%q",
		"degraded response", req.Algorithm, fb.Name, primaryErr)
	enc, err := encodeResponse(req, res, fb.Name)
	if err != nil {
		return nil, nil, http.StatusInternalServerError, err
	}
	return enc, res.sched, http.StatusOK, nil
}

// encodeResponse encodes the reply for a verified solve, once: every
// reply for it is written from these bytes. Verified is always true:
// only schedules that passed the guardrail get here, and the reply's
// execution profile is the one that guardrail's audit derived. A
// non-empty fallback marks the reply degraded, produced by that
// algorithm.
func encodeResponse(req *wire.ScheduleRequest, res solveResult, fallback string) (*wire.EncodedSchedule, error) {
	sched := res.sched
	segs := sched.Segments
	if segs == nil {
		segs = []schedule.Segment{} // served replies carry an array, never null
	}
	enc, err := wire.EncodeSchedule(&wire.ScheduleResponse{
		Version:           wire.Version,
		Algorithm:         req.Algorithm,
		Cores:             req.Cores,
		Energy:            res.energy,
		BusyTime:          sched.BusyTime(),
		Makespan:          sched.Makespan(),
		Verified:          true,
		Degraded:          fallback != "",
		FallbackAlgorithm: fallback,
		Sim:               wire.ProfileReport(res.profile),
	}, segs)
	if err != nil {
		return nil, fmt.Errorf("encode response: %w", err)
	}
	return enc, nil
}

// fallbackEntry resolves the configured fallback algorithm, or nil when
// the chain is disabled or would re-run the algorithm that just failed.
func (s *Server) fallbackEntry(requested string) *check.Entry {
	name := s.cfg.FallbackAlgorithm
	if name == "" || name == FallbackNone || name == requested {
		return nil
	}
	e, ok := check.Lookup(name)
	if !ok {
		return nil
	}
	return &e
}

// statusForSolveErr maps the easched error taxonomy to HTTP statuses:
// infeasible instances are the client's problem (422), deadline blows
// are 504, panics and invalid schedules are server faults (500), and
// unclassified solver errors remain 422 (unprocessable instance).
func statusForSolveErr(err error) int {
	switch {
	case errors.Is(err, easched.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, easched.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, easched.ErrSolverPanic):
		return http.StatusInternalServerError
	case errors.Is(err, easched.ErrInvalidSchedule):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// handleSchedule serves POST /v1/schedule.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		retryAfter(w, 1)
		s.metrics.draining.Add(1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
		return
	}
	start := time.Now()

	var req wire.ScheduleRequest
	if err := decodeJSON(w, r, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	enc, sched, code, err := s.solveOne(r.Context(), &req)
	if err != nil {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			retryAfter(w, 1)
		}
		writeErrorFor(w, code, err)
		return
	}
	s.respondSchedule(w, r, enc, sched, sinceMS(start))
}

// sinceMS is the wall time since start in milliseconds.
func sinceMS(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// maxBatchItems bounds one batch request; larger batches should be
// split by the client.
const maxBatchItems = 256

// handleScheduleBatch serves POST /v1/schedule/batch: independent
// instances solved concurrently, each through the same admission gate,
// cache, and validator guardrail as POST /v1/schedule. The batch
// response is 200 whenever the batch was processed; per-item failures
// carry their own HTTP-equivalent status.
func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		retryAfter(w, 1)
		s.metrics.draining.Add(1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "server is draining")
		return
	}
	start := time.Now()

	var req wire.BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if len(req.Items) == 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > maxBatchItems {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			"batch has %d items, limit is %d", len(req.Items), maxBatchItems)
		return
	}

	s.metrics.batches.Add(1)
	items := make([]wire.EncodedBatchItem, len(req.Items))
	// Fan out at most Workers items at a time: each still passes the
	// admission gate, but a large batch queues here instead of flooding
	// the shared admission queue (which would 429 its own tail).
	workers := s.cfg.Workers
	if workers > len(req.Items) {
		workers = len(req.Items)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				itemStart := time.Now()
				enc, sched, code, err := s.solveOne(r.Context(), &req.Items[i])
				if err == nil {
					var parts net.Buffers
					if parts, err = enc.Parts(sched == nil, sinceMS(itemStart)); err == nil {
						items[i].Response = parts
						continue
					}
					code = http.StatusInternalServerError
				}
				items[i].Err = wire.BatchItem{
					Index: i, Error: err.Error(), Status: code,
					Code:      errorCode(code, err),
					Retryable: wire.RetryableStatus(code),
				}
			}
		}()
	}
	for i := range req.Items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	body, err := wire.EncodeBatch(items, sinceMS(start))
	if err != nil {
		writeErrorFor(w, http.StatusInternalServerError, err)
		return
	}
	writeEncoded(w, body)
}

// writeEncoded writes a 200 reply from pre-encoded parts with its
// Content-Length, ending it with the newline json.Encoder adds.
func writeEncoded(w http.ResponseWriter, parts net.Buffers) {
	parts = append(parts, []byte("\n"))
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	_, _ = parts.WriteTo(w) // a failed write means the client is gone
}

// respondSchedule writes either the encoded schedule reply or, with
// ?trace=chrome, a Chrome trace-event document of the schedule (ready
// for chrome://tracing / Perfetto). A cache hit (sched == nil) decodes
// the schedule from the stored reply, only on this path.
func (s *Server) respondSchedule(w http.ResponseWriter, r *http.Request, enc *wire.EncodedSchedule, sched *schedule.Schedule, elapsedMS float64) {
	if r.URL.Query().Get("trace") == "chrome" {
		if sched == nil {
			var resp wire.ScheduleResponse
			if err := json.Unmarshal(enc.Body, &resp); err != nil {
				writeErrorFor(w, http.StatusInternalServerError, fmt.Errorf("decode cached response: %w", err))
				return
			}
			sched = &schedule.Schedule{Cores: resp.Cores}
			for _, seg := range resp.Segments {
				sched.Add(schedule.Segment{
					Task: seg.Task, Core: seg.Core,
					Start: seg.Start, End: seg.End, Frequency: seg.Frequency,
				})
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="schedule.trace.json"`)
		if err := trace.WriteChrome(w, sched, 1e3); err != nil {
			s.cfg.Logger.Printf("msg=%q err=%q", "chrome trace write failed", err)
		}
		return
	}
	parts, err := enc.Parts(sched == nil, elapsedMS)
	if err != nil {
		writeErrorFor(w, http.StatusInternalServerError, err)
		return
	}
	writeEncoded(w, parts)
}

// statusForCtxErr maps a context error to the HTTP status of the (likely
// unread) response: 504 for a deadline, 503 for client cancellation.
func statusForCtxErr(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusServiceUnavailable
}

// handleFeasible serves POST /v1/feasible: the max-flow schedulability
// test at the requested uniform speed ceiling (default 1.0, the paper's
// normalized f_max) plus the bisected minimal feasible speed.
func (s *Server) handleFeasible(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "use POST")
		return
	}
	var req wire.FeasibleRequest
	if err := decodeJSON(w, r, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	if err := validateInstance(req.Tasks, req.Cores, s.cfg.MaxTasks); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "%v", err)
		return
	}
	speed := req.Speed
	if speed == 0 {
		speed = 1
	}
	if speed < 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "speed %g must be positive", speed)
		return
	}
	d, err := interval.Decompose(req.Tasks, 1e-9)
	if err != nil {
		wire.WriteError(w, http.StatusUnprocessableEntity, wire.CodeUnprocessable, "%v", err)
		return
	}
	feasible, _, err := feas.Feasible(d, req.Cores, speed)
	if err != nil {
		wire.WriteError(w, http.StatusUnprocessableEntity, wire.CodeUnprocessable, "%v", err)
		return
	}
	minSpeed, _, err := feas.MinSpeed(d, req.Cores, 1e-9)
	if err != nil {
		wire.WriteError(w, http.StatusUnprocessableEntity, wire.CodeUnprocessable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, wire.FeasibleResponse{
		Feasible: feasible,
		Speed:    speed,
		MinSpeed: minSpeed,
	})
}

// handleAlgorithms serves GET /v1/algorithms.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, wire.AlgorithmsResponse{Algorithms: check.Names()})
}

// handleHealthz serves GET /healthz: pure liveness. It answers 200 as
// long as the process is serving at all — even while draining — so
// orchestrators don't kill a daemon that is finishing in-flight work.
// Routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"algorithms": len(check.Names()),
	})
}

// handleReadyz serves GET /readyz: drain-aware readiness. 503 once
// shutdown begins (load balancers stop routing before in-flight work is
// cut off) or when every known algorithm breaker is open (nothing can
// currently be served).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		retryAfter(w, 1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "draining")
	case s.breakers.AllOpen():
		retryAfter(w, 1)
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeBreakerOpen, "all circuit breakers open")
	default:
		resp := map[string]any{"status": "ready"}
		if s.journalStore() != nil {
			// Journal enabled: surface the startup recovery outcome so
			// orchestration (and the crash smoke) can assert on it.
			resp["sessions_recovered"] = s.metrics.sessionsRecovered.Load()
			resp["sessions_recovery_failed"] = s.metrics.sessionsRecoveryFailed.Load()
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleMetrics serves GET /metrics as expvar-style text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.Write(w)
}
