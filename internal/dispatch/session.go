package dispatch

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/interval"
	"repro/internal/opt"
	"repro/internal/schedule"
	"repro/internal/task"
)

const workEps = 1e-9

// Stats is a point-in-time summary of a session.
type Stats struct {
	// Clock is the session's virtual time.
	Clock float64 `json:"clock"`
	// Tasks counts every task ever admitted.
	Tasks int `json:"tasks"`
	// Open counts admitted tasks that are neither complete nor shed
	// (the backlog the Config.Backlog bound applies to).
	Open int `json:"open"`
	// Pending counts admitted tasks awaiting their first re-plan.
	Pending int `json:"pending"`
	// Completed counts tasks that finished their work.
	Completed int `json:"completed"`
	// Shed counts load-shed tasks (backlog, expiry, replan failure).
	Shed int `json:"shed"`
	// Replans and Commits are the cumulative planning/commit episodes.
	Replans int `json:"replans"`
	Commits int `json:"commits"`
	// RealizedEnergy is the energy of the committed prefix.
	RealizedEnergy float64 `json:"realized_energy"`
	// Finished and Closed report lifecycle state.
	Finished bool `json:"finished"`
	Closed   bool `json:"closed"`
}

// FinalReport is the retrospective account of a finished session.
type FinalReport struct {
	// RealizedEnergy is the energy of the full committed schedule.
	RealizedEnergy float64
	// OptimalEnergy is the clairvoyant offline optimum E^opt for the
	// effective instance (every non-shed task at its effective release),
	// computed retroactively; 0 when skipped or failed (see OptError).
	OptimalEnergy float64
	// CompetitiveRatio is RealizedEnergy/OptimalEnergy (0 when the
	// optimum is unavailable): the price the session paid for not
	// knowing the future.
	CompetitiveRatio float64
	// OptError explains an unavailable optimum ("" on success).
	OptError string
	// Replans, Commits, Completed, Shed are the final counters.
	Replans   int
	Commits   int
	Completed int
	Shed      int
	// Missed lists session task IDs (non-shed) that completed after
	// their deadline or never; empty under ReplanDER.
	Missed []int
	// Horizon is the final virtual clock (end of the last commit).
	Horizon float64
	// Tasks is the effective instance, renumbered 0..n-1; TaskIDs maps
	// each back to its session task ID.
	Tasks   task.Set
	TaskIDs []int
	// Schedule is the realized committed schedule over Tasks. Its
	// Segments are read-only: when no admitted task was shed and every
	// committed segment has a positive duration, they are a view of the
	// session's committed prefix (see Session.Committed), whose task IDs
	// are then the effective instance's.
	Schedule *schedule.Schedule
	// Violations lists in-band validator findings against the realized
	// schedule (empty in a correct run).
	Violations []string
	// Sim is the realized schedule's execution profile (preemptions,
	// migrations, per-core utilization), derived by the same audit that
	// fills Violations; nil when the audit found a violation.
	Sim *check.Profile
}

// Session is one live scheduling session. All methods are safe for
// concurrent use.
type Session struct {
	cfg Config

	// flushMu serializes flushes so at most one residual solve runs at a
	// time; the solve itself holds only flushMu, never mu, so arrivals
	// and event subscribers are not blocked behind the solver.
	flushMu sync.Mutex
	// mu guards everything below.
	mu sync.Mutex

	now       float64 // virtual clock
	tasks     []TaskState
	committed []schedule.Segment // immutable realized prefix, times < now at rest
	plan      []schedule.Segment // current plan suffix, times ≥ now
	realized  float64            // energy of committed

	// deltaAt indexes a commit's deltas by task and is cleared by each
	// commit.
	deltaAt map[int]int

	pending         []int // task IDs awaiting their first plan
	pendingAttempts int   // failed solves for the pending batch

	open      int // admitted, neither complete nor shed
	completed int
	shedCount int
	replans   int
	commits   int

	timer    *time.Timer
	timerSet bool

	closed   bool
	finished bool
	final    *FinalReport

	hub *eventHub
	seq int64

	// Journal state: events buffered until their record is durable, the
	// degraded-mode latch, and the sealed (finish-record-written) latch.
	jbuf    []Event
	jbroken bool
	sealed  bool
}

// New creates a session. The zero virtual clock is 0; the first arrival
// batch advances it. With Config.Journal set, the log's create record
// is written before New returns.
func New(cfg Config) (*Session, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, hub: newEventHub(EventHistory), deltaAt: make(map[int]int)}
	if cfg.Journal != nil {
		s.cfg.Journal = nil
		if err := s.AttachJournal(cfg.Journal); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Algorithm returns the residual policy label.
func (s *Session) Algorithm() string { return s.cfg.Algorithm }

// Cores returns the session's core count.
func (s *Session) Cores() int { return s.cfg.Cores }

// emitLocked stamps an event and publishes it — or, when the session is
// journaled, buffers it until the covering record is durable (see
// journalLocked), so no subscriber ever observes a seq that a restart
// could reuse. Call with mu held.
func (s *Session) emitLocked(ev Event) {
	ev.Seq = s.seq
	s.seq++
	ev.Clock = s.now
	if ev.Type != EventComplete {
		ev.Task = -1
	}
	if s.cfg.Journal != nil && !s.jbroken {
		s.jbuf = append(s.jbuf, ev)
		return
	}
	s.hub.emit(ev)
}

// shedIDsLocked marks admitted tasks as shed; call with mu held. The
// caller reports the count to Hooks.Shed outside mu.
func (s *Session) shedIDsLocked(ids []int, reason string) {
	for _, id := range ids {
		if !s.tasks[id].Shed {
			s.tasks[id].Shed = true
			s.open--
		}
	}
	s.shedCount += len(ids)
	s.emitLocked(Event{Type: EventShed, Count: len(ids), Reason: reason})
}

func (s *Session) notifyShed(n int) {
	if n > 0 && s.cfg.Hooks.Shed != nil {
		s.cfg.Hooks.Shed(n)
	}
}

// Arrive admits a batch of tasks at virtual time at. The whole batch is
// validated first and rejected with ErrBadArrival if any task is
// malformed or undoable (deadline not after its effective release);
// otherwise tasks are admitted up to the backlog bound and the rest
// shed. With a debounce window the re-plan is deferred so bursts
// coalesce; otherwise the batch is planned before Arrive returns.
func (s *Session) Arrive(ctx context.Context, at float64, batch task.Set) (admitted, shed int, err error) {
	if len(batch) == 0 {
		return 0, 0, nil
	}
	if math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
		return 0, 0, fmt.Errorf("%w: arrival time %g", ErrBadArrival, at)
	}
	for _, tk := range batch {
		if !finite(tk.Release, tk.Work, tk.Deadline) {
			return 0, 0, fmt.Errorf("%w: non-finite task parameter", ErrBadArrival)
		}
		if !(tk.Work > 0) {
			return 0, 0, fmt.Errorf("%w: work %g must be positive", ErrBadArrival, tk.Work)
		}
		if eff := math.Max(tk.Release, at); tk.Deadline <= eff {
			return 0, 0, fmt.Errorf("%w: deadline %g not after effective release %g", ErrBadArrival, tk.Deadline, eff)
		}
	}
	admitted, shed, err = s.admit(at, batch)
	if err != nil {
		return 0, 0, err
	}
	s.notifyShed(shed)
	if s.cfg.Debounce <= 0 && admitted > 0 {
		if err := s.Flush(ctx); err != nil {
			return admitted, shed, err
		}
	}
	return admitted, shed, nil
}

// admit takes a validated batch into the task table, up to the backlog
// bound, and journals it. With a debounce window it arms the timer.
func (s *Session) admit(at float64, batch task.Set) (admitted, shed int, err error) {
	s.mu.Lock()
	defer s.unlock()
	if s.closed || s.finished {
		return 0, 0, ErrSessionClosed
	}
	if at < s.now {
		// The clock never runs backwards: a late-reported arrival is
		// admitted "now".
		at = s.now
	}
	room := s.cfg.Backlog - s.open
	if room < 0 {
		room = 0
	}
	admitted = len(batch)
	if admitted > room {
		admitted = room
	}
	shed = len(batch) - admitted
	for _, tk := range batch[:admitted] {
		id := len(s.tasks)
		s.tasks = append(s.tasks, TaskState{
			Release:   math.Max(tk.Release, at),
			Work:      tk.Work,
			Deadline:  tk.Deadline,
			Remaining: tk.Work,
			ArrivedAt: at,
		})
		s.pending = append(s.pending, id)
	}
	s.open += admitted
	if shed > 0 {
		s.shedCount += shed
		s.emitLocked(Event{Type: EventShed, Count: shed, Reason: "backlog"})
	}
	if s.cfg.Journal != nil && (admitted > 0 || shed > 0) {
		rec := &Record{Kind: RecArrival, ArrivedAt: at, Count: shed,
			Tasks: slices.Clone(s.tasks[len(s.tasks)-admitted:])}
		// The batch is durable before Arrive returns: the admission ack
		// the caller sends is backed by the log per the fsync policy.
		s.journalLocked(rec)
	}
	if s.cfg.Debounce > 0 && admitted > 0 && !s.timerSet {
		s.timerSet = true
		s.timer = time.AfterFunc(s.cfg.Debounce, s.timerFlush)
	}
	return admitted, shed, nil
}

// unlock ends a critical section of mu; every section that changes the
// session defers it. A section that panics (a journal's Append, say)
// may leave the state half changed, so unlock then closes the session
// before the panic goes on: mu is released on every path, and later
// calls get ErrSessionClosed instead of blocking for good.
func (s *Session) unlock() {
	if r := recover(); r != nil {
		s.closeLocked()
		s.mu.Unlock()
		panic(r)
	}
	s.mu.Unlock()
}

// timerFlush fires when a debounce window closes.
func (s *Session) timerFlush() {
	s.mu.Lock()
	s.timerSet = false
	dead := s.closed || s.finished
	s.mu.Unlock()
	if dead {
		return
	}
	_ = s.Flush(context.Background())
}

// Flush drains every pending arrival batch through commit + re-plan.
// It returns once no arrivals are pending (including ones admitted
// while a solve was in flight), the context is canceled, or the session
// is closed. Solve failures are retried up to MaxRetries and then shed;
// they never surface as a Flush error.
func (s *Session) Flush(ctx context.Context) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.flushLocked(ctx)
}

// solveJob is one residual solve: the pending tasks it plans, the
// residual instance and the session IDs of its tasks, and the failed
// attempts before it.
type solveJob struct {
	batch    []int
	residual task.Set
	ids      []int
	attempts int
}

// flushLocked is Flush with flushMu already held. Each round holds mu
// to set a solve up and to settle it, never while it runs.
func (s *Session) flushLocked(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		job, shedN, done, err := s.nextSolve()
		s.notifyShed(shedN)
		if done {
			return err
		}
		if len(job.batch) == 0 {
			continue
		}
		start := time.Now()
		plan, _, err := s.cfg.Solve(ctx, job.residual, s.cfg.Cores, s.cfg.Model)
		latency := time.Since(start)
		if s.cfg.Hooks.Replan != nil {
			s.cfg.Hooks.Replan(latency, err)
		}
		shedN, err = s.settleSolve(job, plan, err, latency)
		s.notifyShed(shedN)
		if err != nil {
			return err
		}
	}
}

// nextSolve commits the plan up to the latest pending arrival, sheds the
// pending tasks whose window closed meanwhile, and sets up the residual
// solve of the rest (an empty batch when none is left). done reports
// that nothing is pending, the session is finished, or, with
// ErrSessionClosed, closed. shedN is for Hooks.Shed.
func (s *Session) nextSolve() (job solveJob, shedN int, done bool, err error) {
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		return job, 0, true, ErrSessionClosed
	}
	if s.finished || len(s.pending) == 0 {
		return job, 0, true, nil
	}
	// The admission instant is the latest arrival in the coalesced
	// batch: everything the session "executed" before it is frozen.
	t1 := s.now
	for _, id := range s.pending {
		if a := s.tasks[id].ArrivedAt; a > t1 {
			t1 = a
		}
	}
	prevNow := s.now
	committed, deltas := s.commitToLocked(t1)
	if s.cfg.Journal != nil && (len(committed) > 0 || s.now > prevNow) {
		s.journalLocked(&Record{Kind: RecCommit, Segments: committed, Deltas: deltas})
	}
	// Pending tasks whose window closed inside the debounce gap can
	// no longer run; shed them rather than poison the residual.
	batch := make([]int, 0, len(s.pending))
	var expired []int
	for _, id := range s.pending {
		if s.tasks[id].Deadline <= t1+tolerance {
			expired = append(expired, id)
		} else {
			batch = append(batch, id)
		}
	}
	s.pending = nil
	if shedN = len(expired); shedN > 0 {
		s.shedIDsLocked(expired, "expired")
		if s.cfg.Journal != nil {
			s.journalLocked(&Record{Kind: RecShed, ShedIDs: expired, Count: shedN, Reason: "expired"})
		}
	}
	if len(batch) == 0 {
		s.pendingAttempts = 0
		return job, shedN, false, nil
	}
	job.residual, job.ids = s.residualLocked()
	job.batch, job.attempts = batch, s.pendingAttempts
	return job, shedN, false, nil
}

// settleSolve applies the outcome of job's solve: it installs a plan,
// or queues the batch for a retry, or, out of retries, sheds it.
// shedN is for Hooks.Shed; the error is ErrSessionClosed when the
// session closed during the solve.
func (s *Session) settleSolve(job solveJob, plan *schedule.Schedule, solveErr error, latency time.Duration) (shedN int, err error) {
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		return 0, ErrSessionClosed
	}
	if solveErr == nil {
		s.pendingAttempts = 0
		s.installPlanLocked(plan, job.ids, len(job.batch), latency)
		if s.cfg.Journal != nil {
			s.journalLocked(&Record{Kind: RecReplan, Count: len(job.batch)})
		}
		return 0, nil
	}
	s.emitLocked(Event{Type: EventError, Reason: solveErr.Error()})
	if job.attempts+1 > s.cfg.MaxRetries {
		// Out of retries: shed the batch so the session never wedges.
		// Previously planned tasks keep the old plan suffix and still
		// complete.
		s.shedIDsLocked(job.batch, "replan-failed")
		if s.cfg.Journal != nil {
			s.journalLocked(&Record{Kind: RecShed, ShedIDs: job.batch, Count: len(job.batch), Reason: "replan-failed"})
		}
		s.pendingAttempts = 0
		return len(job.batch), nil
	}
	s.pendingAttempts = job.attempts + 1
	s.pending = append(job.batch, s.pending...)
	if s.cfg.Journal != nil {
		s.journalLocked(&Record{Kind: RecError, Reason: solveErr.Error()})
	}
	return 0, nil
}

// commitToLocked freezes the plan prefix before t1 as committed
// segments, realizes its energy and completions, and advances the
// clock. It returns the newly committed segments (time-ordered) and the
// execution-state deltas of every task they touched, which the journal
// persists as one RecCommit. The segments are the tail it appended to
// the committed prefix, which is append-only, so they stay as returned.
// Call with mu held.
func (s *Session) commitToLocked(t1 float64) ([]schedule.Segment, []CommitDelta) {
	if t1 < s.now {
		t1 = s.now
	}
	s.growCommittedLocked(len(s.plan))
	base := len(s.committed)
	// The segments that stay move down in place: a write never passes
	// the read.
	keep := s.plan[:0]
	for _, seg := range s.plan {
		switch {
		case seg.Start >= t1-tolerance:
			keep = append(keep, seg)
		case seg.End <= t1+tolerance:
			s.committed = append(s.committed, seg)
		default:
			head, tail := seg, seg
			head.End, tail.Start = t1, t1
			s.committed = append(s.committed, head)
			keep = append(keep, tail)
		}
	}
	s.plan = keep
	done := s.committed[base:len(s.committed):len(s.committed)]
	// Completions must be observed in time order.
	slices.SortFunc(done, func(a, b schedule.Segment) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		default:
			return 0
		}
	})
	deltaAt := s.deltaAt
	clear(deltaAt)
	var deltas []CommitDelta
	for _, seg := range done {
		dur := seg.End - seg.Start
		s.realized += s.cfg.Model.EnergyForTime(dur, seg.Frequency)
		ts := &s.tasks[seg.Task]
		work := seg.Frequency * dur
		if ts.Remaining <= work+workEps && !ts.Done {
			ct := seg.Start + ts.Remaining/seg.Frequency
			if ct > seg.End {
				ct = seg.End
			}
			ts.Done, ts.CompletedAt = true, ct
			s.completed++
			s.open--
			s.emitLocked(Event{Type: EventComplete, Task: seg.Task, Completed: ct})
		}
		ts.Remaining = math.Max(0, ts.Remaining-work)
		i, ok := deltaAt[seg.Task]
		if !ok {
			i = len(deltas)
			deltaAt[seg.Task] = i
			deltas = append(deltas, CommitDelta{Task: seg.Task})
		}
		deltas[i].Remaining = ts.Remaining
		if ts.Done {
			deltas[i].Done = true
			deltas[i].CompletedAt = ts.CompletedAt
		}
	}
	if t1 > s.now {
		s.now = t1
	}
	if len(done) > 0 {
		s.commits++
		s.emitLocked(Event{Type: EventCommit, Count: len(done), Energy: s.realized})
	}
	return done, deltas
}

// growCommittedLocked makes room for n more committed segments. When
// the prefix has to move it at least doubles its capacity: append alone
// grows a large slice by about a quarter, so a long session would copy
// its prefix many times over. The prefix is only ever appended to, so a
// snapshot or record that shares the old array still reads the same
// segments. Call with mu held.
func (s *Session) growCommittedLocked(n int) {
	if len(s.committed)+n > cap(s.committed) {
		s.committed = slices.Grow(s.committed, max(n, cap(s.committed)))
	}
}

// residualLocked projects the live workload onto a fresh instance for
// the solver: every unfinished, non-shed task with its remaining work,
// released no earlier than now. Call with mu held. ids maps residual
// task IDs back to session task IDs.
func (s *Session) residualLocked() (task.Set, []int) {
	// A residual task is an open one, so s.open sizes both.
	residual := make(task.Set, 0, s.open)
	ids := make([]int, 0, s.open)
	for i := range s.tasks {
		ts := &s.tasks[i]
		if ts.Shed || ts.Remaining <= workEps {
			continue
		}
		residual = append(residual, task.Task{
			ID:       len(residual),
			Release:  math.Max(ts.Release, s.now),
			Work:     ts.Remaining,
			Deadline: ts.Deadline,
		})
		ids = append(ids, i)
	}
	return residual, ids
}

// installPlanLocked takes a fresh residual solution as the plan suffix,
// remapping solver task IDs to session IDs in place. A successful solve
// hands its schedule over (see SolveFunc), so its segments become the
// suffix without a copy, and the suffix they replace goes with plan to
// schedule.Recycle, for a later solve to build in. Call with mu held.
func (s *Session) installPlanLocked(plan *schedule.Schedule, ids []int, batchN int, latency time.Duration) {
	segs := plan.Segments[:0]
	for _, seg := range plan.Segments {
		if seg.Task < 0 || seg.Task >= len(ids) {
			continue // unreachable behind the validator guardrail
		}
		seg.Task = ids[seg.Task]
		segs = append(segs, seg)
	}
	plan.Segments, s.plan = s.plan, segs
	schedule.Recycle(plan)
	s.replans++
	s.emitLocked(Event{
		Type:      EventReplan,
		Count:     batchN,
		Replans:   s.replans,
		LatencyMS: latency.Seconds() * 1e3,
	})
}

// Finish runs the session to its horizon: drains pending arrivals,
// commits the entire remaining plan, validates the realized schedule
// in-band, simulates it, and accounts it against the clairvoyant
// offline optimum. Idempotent; later arrivals are rejected. The session
// stays open (events and reads work) until Close.
func (s *Session) Finish(ctx context.Context) (*FinalReport, error) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for {
		if err := s.flushLocked(ctx); err != nil {
			return nil, err
		}
		f, fresh, err := s.commitAll()
		switch {
		case err != nil:
			return nil, err
		case f != nil && !fresh:
			return f, nil
		case f != nil:
			s.account(ctx, f)
			s.publishFinal(f)
			return f, nil
		}
	}
}

// commitAll marks the session finished, commits the whole plan and
// returns the report's realized part, fresh. A session finished before
// returns its report, not fresh; one with arrivals pending again
// returns nil, for Finish to flush them first.
func (s *Session) commitAll() (f *FinalReport, fresh bool, err error) {
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		return nil, false, ErrSessionClosed
	}
	if s.finished {
		return s.final, false, nil
	}
	if len(s.pending) > 0 {
		return nil, false, nil
	}
	s.finished = true
	horizon := s.now
	for _, seg := range s.plan {
		if seg.End > horizon {
			horizon = seg.End
		}
	}
	prevNow := s.now
	done, deltas := s.commitToLocked(horizon)
	if s.cfg.Journal != nil && (len(done) > 0 || s.now > prevNow) {
		s.journalLocked(&Record{Kind: RecCommit, Segments: done, Deltas: deltas})
	}

	f = &FinalReport{
		RealizedEnergy: s.realized,
		Replans:        s.replans,
		Commits:        s.commits,
		Completed:      s.completed,
		Shed:           s.shedCount,
		Horizon:        s.now,
	}
	// Effective instance: every non-shed task at its effective release.
	effID := make([]int, len(s.tasks))
	for i := range s.tasks {
		effID[i] = -1
		ts := &s.tasks[i]
		if ts.Shed {
			continue
		}
		effID[i] = len(f.Tasks)
		f.Tasks = append(f.Tasks, task.Task{
			ID:       len(f.Tasks),
			Release:  ts.Release,
			Work:     ts.Work,
			Deadline: ts.Deadline,
		})
		f.TaskIDs = append(f.TaskIDs, i)
		if !ts.Done || ts.CompletedAt > ts.Deadline+1e-6 {
			f.Missed = append(f.Missed, i)
		}
	}
	f.Schedule = schedule.New(f.Tasks, s.cfg.Cores)
	if len(f.Tasks) == len(s.tasks) && !slices.ContainsFunc(s.committed, dropped) {
		// Every session ID is its effective ID and Add would keep every
		// segment: the schedule is the prefix, which no longer grows.
		f.Schedule.Segments = s.committed[:len(s.committed):len(s.committed)]
		return f, true, nil
	}
	f.Schedule.Grow(len(s.committed))
	for _, seg := range s.committed {
		if id := effID[seg.Task]; id >= 0 {
			seg.Task = id
			f.Schedule.Add(seg)
		}
	}
	return f, true, nil
}

// dropped reports whether schedule.Add drops seg.
func dropped(seg schedule.Segment) bool { return seg.Duration() <= 0 }

// account audits f's realized schedule and prices it against the
// clairvoyant optimum. It can be expensive, so it runs without mu:
// reads and subscribers stay live, finished keeps every mutation path
// out, flushMu is still held, and s.final is only published once f
// stops changing.
func (s *Session) account(ctx context.Context, f *FinalReport) {
	if len(f.Tasks) == 0 {
		return
	}
	m, pm := s.cfg.Cores, s.cfg.Model
	res := check.Audit(f.Schedule, f.Tasks, m, pm, check.DefaultOptions())
	for _, v := range res.Violations {
		f.Violations = append(f.Violations, v.Error())
	}
	if res.OK() {
		f.Sim = &res.Profile
	}
	if s.cfg.SkipRatio {
		f.OptError = "skipped"
	} else if d, err := interval.Decompose(f.Tasks, 1e-9); err != nil {
		f.OptError = err.Error()
	} else if sol, err := opt.Solve(d, m, pm, opt.Options{Context: ctx}); err != nil {
		f.OptError = err.Error()
	} else {
		f.OptimalEnergy = sol.Energy
		if sol.Energy > 0 {
			f.CompetitiveRatio = f.RealizedEnergy / sol.Energy
		}
	}
}

// publishFinal publishes the finished report and seals the journal.
func (s *Session) publishFinal(f *FinalReport) {
	s.mu.Lock()
	defer s.unlock()
	s.final = f
	s.emitLocked(Event{
		Type:    EventFinal,
		Energy:  f.RealizedEnergy,
		Ratio:   f.CompetitiveRatio,
		Replans: f.Replans,
	})
	if s.cfg.Journal != nil {
		if !s.sealed {
			s.sealed = true
			s.journalLocked(&Record{Kind: RecFinish, Reason: "finished"})
		} else {
			s.publishBufferedLocked()
		}
	}
}

// Close tears the session down: the debounce timer is stopped and every
// event stream is closed. Work already committed stays readable.
// Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeLocked()
}

// closeLocked is Close with mu held.
func (s *Session) closeLocked() {
	if s.closed {
		return
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.hub.close()
}

// Subscribe attaches an event consumer. The retained history is
// replayed first, then live events follow; the channel is closed when
// the session closes. cancel detaches early (safe after close).
func (s *Session) Subscribe() (events <-chan Event, cancel func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrSessionClosed
	}
	sub, replay := s.hub.subscribe()
	for _, ev := range replay {
		sub.ch <- ev // capacity ≥ history: never blocks
	}
	cancel = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.closed {
			s.hub.unsubscribe(sub)
		}
	}
	return sub.ch, cancel, nil
}

// Stats returns a point-in-time summary.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Clock:          s.now,
		Tasks:          len(s.tasks),
		Open:           s.open,
		Pending:        len(s.pending),
		Completed:      s.completed,
		Shed:           s.shedCount,
		Replans:        s.replans,
		Commits:        s.commits,
		RealizedEnergy: s.realized,
		Finished:       s.finished,
		Closed:         s.closed,
	}
}

// Committed returns the immutable realized prefix as a read-only view:
// the session only ever appends to the prefix, and the view's capacity
// ends at its length, so what it shows never changes, but the caller
// must not write to it. Segment Task fields are session task IDs.
func (s *Session) Committed() []schedule.Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed[:len(s.committed):len(s.committed)]
}

// Plan returns a copy of the current plan suffix (times ≥ Now).
func (s *Session) Plan() []schedule.Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.plan)
}

// Final returns the finish-time report, or nil before Finish.
func (s *Session) Final() *FinalReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final
}
