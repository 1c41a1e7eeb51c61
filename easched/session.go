package easched

import (
	"context"
	"slices"
	"time"

	"repro/internal/dispatch"
)

// Streaming sessions: the live dispatch runtime (internal/dispatch)
// exposed through the public API. A Session accepts task arrivals over
// time on a virtual clock, coalesces bursts inside a debounce window,
// re-plans the residual workload with a registered scheduler (default
// the paper's event-driven ReplanDER policy, Section VI.D), freezes the
// executed prefix at immutable commit points, and — on Finish —
// accounts the realized energy against the clairvoyant offline optimum
// to report a per-session competitive ratio.

// SessionEvent is one entry of a session's event stream: replans,
// commit points, task completions, load-shedding and the final report.
type SessionEvent = dispatch.Event

// SessionStats is a point-in-time summary of a session.
type SessionStats = dispatch.Stats

// SessionReport is the final accounting of a finished session,
// including the realized schedule, the clairvoyant optimum's energy and
// the competitive ratio.
type SessionReport = dispatch.FinalReport

// SessionSnapshot is a serializable checkpoint of a session (see
// Session.Snapshot / RestoreSession).
type SessionSnapshot = dispatch.Snapshot

// Event types delivered on a session's stream.
const (
	EventReplan   = dispatch.EventReplan
	EventCommit   = dispatch.EventCommit
	EventComplete = dispatch.EventComplete
	EventShed     = dispatch.EventShed
	EventError    = dispatch.EventError
	EventFinal    = dispatch.EventFinal
)

// SessionConfig describes a streaming session. Zero values select
// defaults: ReplanDER, backlog 1024, synchronous (no debounce) replans.
type SessionConfig struct {
	// Algorithm names any registered scheduler used for residual
	// re-planning (default "ReplanDER").
	Algorithm string
	// Cores is the core count m ≥ 1.
	Cores int
	// Model is the continuous power model.
	Model Model
	// Debounce coalesces arrival bursts: all batches arriving inside the
	// window trigger a single re-plan. Zero re-plans on every batch.
	Debounce time.Duration
	// Backlog bounds unfinished tasks before load-shedding (default 1024).
	Backlog int
	// SkipRatio disables the clairvoyant-optimum solve during Finish.
	SkipRatio bool
}

// Session is a live scheduling session. All methods are safe for
// concurrent use.
type Session struct {
	s *dispatch.Session
}

// NewSession opens a streaming session.
func NewSession(cfg SessionConfig) (*Session, error) {
	s, err := dispatch.New(dispatch.Config{
		Algorithm: cfg.Algorithm,
		Cores:     cfg.Cores,
		Model:     cfg.Model,
		Debounce:  cfg.Debounce,
		Backlog:   cfg.Backlog,
		SkipRatio: cfg.SkipRatio,
	})
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Arrive admits a batch of tasks at virtual time `at` (the session
// clock never runs backwards; an earlier `at` is clamped to "now").
// Task IDs within the batch are positional; the session assigns its own
// IDs in arrival order, which appear in events and the final report.
// It returns how many tasks were admitted and how many were load-shed
// because the backlog bound was hit.
func (s *Session) Arrive(ctx context.Context, at float64, tasks TaskSet) (admitted, shed int, err error) {
	return s.s.Arrive(ctx, at, tasks)
}

// Events subscribes to the session's event stream. Retained history is
// replayed first, then live events follow; the channel closes when the
// session closes. The returned cancel function releases the
// subscription early.
func (s *Session) Events() (<-chan SessionEvent, func(), error) {
	return s.s.Subscribe()
}

// Flush forces any debounced pending arrivals to be re-planned now.
func (s *Session) Flush(ctx context.Context) error { return s.s.Flush(ctx) }

// Stats reports a point-in-time summary.
func (s *Session) Stats() SessionStats { return s.s.Stats() }

// Committed returns the immutable executed prefix of the schedule, a
// copy the caller owns.
func (s *Session) Committed() []Segment { return slices.Clone(s.s.Committed()) }

// Plan returns the current plan suffix (from the session clock on).
func (s *Session) Plan() []Segment { return s.s.Plan() }

// Finish runs the session to its horizon, validates the realized
// schedule, accounts it against the clairvoyant offline optimum and
// returns the final report. It is idempotent; arrivals after Finish
// fail with a closed-session error. The report's schedule is a copy the
// caller owns.
func (s *Session) Finish(ctx context.Context) (*SessionReport, error) {
	f, err := s.s.Finish(ctx)
	return ownReport(f), err
}

// Snapshot checkpoints the session (pending arrivals are flushed
// first). The snapshot is JSON-serializable, and the caller owns it.
func (s *Session) Snapshot(ctx context.Context) (*SessionSnapshot, error) {
	snap, err := s.s.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	snap.Committed = slices.Clone(snap.Committed)
	return snap, nil
}

// RestoreSession rebuilds a session from a Snapshot and re-plans its
// unfinished work.
func RestoreSession(ctx context.Context, snap *SessionSnapshot) (*Session, error) {
	s, err := dispatch.Restore(ctx, snap, dispatch.Config{})
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Close tears the session down and closes its event streams. A closed
// session keeps serving Stats/Committed/Final reads. Close does not
// finish the remaining plan — call Finish first for a final report.
func (s *Session) Close() { s.s.Close() }

// Final returns the report of a finished session (nil before Finish),
// with a schedule the caller owns.
func (s *Session) Final() *SessionReport { return ownReport(s.s.Final()) }

// ownReport returns a copy of f whose schedule, which may be a view of
// the session's committed prefix, is a copy too.
func ownReport(f *SessionReport) *SessionReport {
	if f == nil || f.Schedule == nil {
		return f
	}
	own, sched := *f, *f.Schedule
	sched.Segments = slices.Clone(sched.Segments)
	own.Schedule = &sched
	return &own
}
