package server

import (
	"fmt"

	"repro/internal/task"
)

// validateInstance applies the shared task-set/core-count limits.
func validateInstance(ts task.Set, cores, maxTasks int) error {
	if cores <= 0 {
		return fmt.Errorf("cores must be >= 1, have %d", cores)
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
