// Package dispatch is the live scheduling runtime: long-lived sessions
// into which aperiodic tasks arrive over time, scheduled by re-planning
// the residual workload at every admission — the streaming deployment
// of the paper's Section VI.D reading that internal/online implements as
// a batch replay.
//
// A Session owns a virtual clock driven by arrival timestamps. Each
// admitted batch advances the clock, freezes the prefix of the current
// plan that has now "executed" as immutable commit points, and re-plans
// the remaining work of every live task through a pluggable policy (any
// scheduler in the check registry, projected onto the residual
// instance; default ReplanDER). Bursts of arrivals inside a configurable
// debounce window coalesce into a single re-plan. Sessions carry a
// bounded backlog with load shedding, emit a totally ordered event
// stream (replan, commit, completion, shed, final), support
// snapshot/restore of live state, journal every state change as a
// Record, and — at Finish — account the realized energy against the
// clairvoyant offline optimum computed retroactively over everything
// that arrived, yielding a per-session competitive ratio.
//
// The package owns session state in every form: the live task table is
// the []TaskState a Snapshot and an arrival record carry, Replay is the
// one fold of journal records into a Snapshot, and Restore and Replay
// apply one well-formed-state rule, so no snapshot from a client or a
// log builds a session that indexes past its task table.
//
// A Manager owns many sessions behind TTL eviction and a graceful drain
// (run every session to its horizon, then close all event streams); the
// HTTP surface in internal/server exposes both over /v1/sessions.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Package-level errors, matchable with errors.Is.
var (
	// ErrSessionClosed is returned by operations on a closed session.
	ErrSessionClosed = errors.New("dispatch: session closed")
	// ErrTooManySessions is returned by Manager.Adopt at capacity.
	ErrTooManySessions = errors.New("dispatch: session limit reached")
	// ErrBadArrival marks a rejected arrival batch (malformed task,
	// deadline not after its effective release). The whole batch is
	// rejected; nothing is admitted.
	ErrBadArrival = errors.New("dispatch: invalid arrival")
	// ErrDuplicateSession is returned by Manager.Adopt when the fixed ID
	// is already registered.
	ErrDuplicateSession = errors.New("dispatch: duplicate session id")
)

// SolveFunc produces a schedule for one residual instance together with
// the energy the scheduler reports for it. The serving layer injects a
// SolveFunc that routes residual solves through its admission gate,
// circuit breakers, fault injector, and validator guardrail; standalone
// sessions default to the registered scheduler plus an in-band
// check.Validate.
//
// A successful solve hands its schedule over to the session under
// check.Runner's handoff rule, which every registered scheduler keeps:
// the session takes the segments as its plan suffix, rewriting their
// task IDs in place, and once a later plan replaces them it passes
// them, with the schedule, to schedule.Recycle. The session never
// touches the schedule of a failed solve, nor of one it stopped waiting
// for: a solve abandoned at its deadline keeps what it built.
type SolveFunc func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error)

// Hooks are optional observability callbacks. They are invoked outside
// the session mutex and must be safe for concurrent use.
type Hooks struct {
	// Replan observes every residual solve with its latency and outcome.
	Replan func(latency time.Duration, err error)
	// Shed observes every load-shedding decision with the task count.
	Shed func(n int)
	// JournalError observes the append failure that put the session into
	// degraded (journal-broken) mode. Unlike the other hooks it IS
	// invoked with the session mutex held, so it must not call back into
	// the session — count, log, and return.
	JournalError func(err error)
}

// Defaults applied by Config.withDefaults.
const (
	// DefaultAlgorithm is the residual policy when Config.Algorithm is
	// empty: the event-driven DER replanner, the paper's own online
	// deployment.
	DefaultAlgorithm = "ReplanDER"
	// DefaultBacklog bounds unfinished tasks per session.
	DefaultBacklog = 1024
	// DefaultRetries is how many times a failed residual solve is
	// retried before the pending batch is shed.
	DefaultRetries = 2
)

// Fixed for every session.
const (
	// EventHistory is the event ring capacity replayed to late
	// subscribers; journal replay keeps the same number of events.
	EventHistory = 256
	// tolerance merges nearby time points.
	tolerance = 1e-9
)

// Config describes one session.
type Config struct {
	// Algorithm names the residual policy in the check registry
	// (default ReplanDER). Ignored when Solve is set, except as a label.
	Algorithm string
	// Cores is the core count m ≥ 1.
	Cores int
	// Model is the continuous power model.
	Model power.Model
	// Debounce is the wall-clock coalescing window: arrivals landing
	// while the window is open join one re-plan. Zero (or negative)
	// re-plans synchronously on every arrival batch.
	Debounce time.Duration
	// Backlog bounds unfinished (admitted + pending) tasks; arrivals
	// beyond it are shed. 0 selects DefaultBacklog.
	Backlog int
	// MaxRetries bounds re-plan retries per pending batch before the
	// batch is shed (0 selects DefaultRetries; negative disables
	// retries).
	MaxRetries int
	// Solve overrides the residual solver (see SolveFunc). Nil selects
	// the registered Algorithm guarded by check.Validate.
	Solve SolveFunc
	// Hooks observe replans and sheds.
	Hooks Hooks
	// SkipRatio disables the clairvoyant-optimum solve at Finish (the
	// competitive ratio is then reported as 0).
	SkipRatio bool
	// Journal, when set, persists the session lifecycle as a write-ahead
	// log (see Journal and internal/journal). Events become visible to
	// subscribers only after their record is appended, and the journal
	// decides when to checkpoint.
	Journal Journal
}

func (c Config) withDefaults() (Config, error) {
	if c.Cores <= 0 {
		return c, fmt.Errorf("dispatch: need at least one core, have %d", c.Cores)
	}
	if err := c.Model.Validate(); err != nil {
		return c, err
	}
	if c.Algorithm == "" {
		c.Algorithm = DefaultAlgorithm
	}
	if c.Backlog == 0 {
		c.Backlog = DefaultBacklog
	}
	if c.Backlog < 0 {
		return c, fmt.Errorf("dispatch: backlog %d must be positive", c.Backlog)
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = DefaultRetries
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.Solve == nil {
		solve, err := registrySolve(c.Algorithm)
		if err != nil {
			return c, err
		}
		c.Solve = solve
	}
	return c, nil
}

// registrySolve adapts a registered scheduler into a SolveFunc with
// panic containment and the universal validator guardrail: an invalid
// residual schedule is an error, never a plan the session follows.
func registrySolve(algorithm string) (SolveFunc, error) {
	e, ok := check.Lookup(algorithm)
	if !ok {
		return nil, fmt.Errorf("dispatch: unknown algorithm %q (have %v)", algorithm, check.Names())
	}
	return e.RunVerified, nil
}
