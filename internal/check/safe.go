package check

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// ErrSolverPanic marks an error that was recovered from a scheduler
// panic. Match with errors.Is; the concrete *PanicError (errors.As)
// carries the panic value and stack.
var ErrSolverPanic = errors.New("solver panicked")

// ErrInvalidSchedule marks a produced schedule the universal validator
// rejected. Match with errors.Is; the message names the first violation.
// easched re-exports it, and its text is the one served error bodies
// carry, hence the easched prefix.
var ErrInvalidSchedule = errors.New("easched: produced schedule failed validation")

// PanicError is a recovered scheduler panic converted into an error.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("solver panicked: %v", e.Value) }

// Is reports ErrSolverPanic so errors.Is(err, ErrSolverPanic) matches.
func (e *PanicError) Is(target error) bool { return target == ErrSolverPanic }

// RunSafe executes the entry's runner with panic containment: a panic
// inside the scheduler becomes a *PanicError instead of crashing the
// caller. The differential harness goes through this, so one
// pathological instance cannot take down a whole audit.
func (e Entry) RunSafe(ctx context.Context, ts task.Set, m int, pm power.Model) (s *schedule.Schedule, energy float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, energy = nil, 0
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return e.Run(ctx, ts, m, pm)
}

// RunVerified is RunSafe followed by Validate: it returns only a
// schedule the universal validator accepts, with an energy that agrees
// with the validator's re-integration. An invalid schedule or a wrong
// energy becomes an error wrapping ErrInvalidSchedule that names the
// first violation.
// Every caller that serves or scores a registered scheduler's output
// goes through this (or RunAudited), so the registry runners need not
// check themselves.
func (e Entry) RunVerified(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
	s, energy, _, err := e.runChecked(ctx, ts, m, pm, false)
	return s, energy, err
}

// RunAudited is RunVerified that also returns the execution profile its
// audit derived, for callers that report it alongside the schedule.
func (e Entry) RunAudited(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, Profile, error) {
	return e.runChecked(ctx, ts, m, pm, true)
}

// runChecked is RunSafe followed by the audit, which also checks the
// energy the runner reports, since callers serve it, and derives the
// execution profile only when profile is set.
func (e Entry) runChecked(ctx context.Context, ts task.Set, m int, pm power.Model, profile bool) (*schedule.Schedule, float64, Profile, error) {
	s, energy, err := e.RunSafe(ctx, ts, m, pm)
	if err != nil {
		return nil, 0, Profile{}, err
	}
	opts := DefaultOptions()
	opts.ReportedEnergy = energy
	res := audit(s, ts, m, pm, opts, profile)
	if v := res.Violations; len(v) > 0 {
		return nil, 0, Profile{}, fmt.Errorf("%w: %v (+%d more)", ErrInvalidSchedule, v[0], len(v)-1)
	}
	return s, energy, res.Profile, nil
}
