package server

import (
	"fmt"

	"repro/internal/task"
)

// MaxCores bounds the core count of every instance schedd accepts: a
// one-shot or batch solve, a feasibility test, a session create and a
// restore's snapshot. What a solve and a session allocate grows with
// the core count, so an unbounded one lets a single request ask for
// gigabytes. 1024 is far above the paper's largest m, 12 (Fig. 8).
const MaxCores = 1024

// checkCores applies the core-count limits.
func checkCores(cores int) error {
	switch {
	case cores <= 0:
		return fmt.Errorf("cores must be >= 1, have %d", cores)
	case cores > MaxCores:
		return fmt.Errorf("cores must be <= %d, have %d", MaxCores, cores)
	}
	return nil
}

// validateInstance applies the shared task-set/core-count limits.
func validateInstance(ts task.Set, cores, maxTasks int) error {
	if err := checkCores(cores); err != nil {
		return err
	}
	if len(ts) == 0 {
		return fmt.Errorf("task set is empty")
	}
	if maxTasks > 0 && len(ts) > maxTasks {
		return fmt.Errorf("task set has %d tasks, limit is %d", len(ts), maxTasks)
	}
	if err := ts.Validate(); err != nil {
		return err
	}
	return nil
}
