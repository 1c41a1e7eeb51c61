package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/task"
)

// maxBodyBytes bounds request bodies so a single client cannot exhaust
// memory; generously sized for tens of thousands of tasks.
const maxBodyBytes = 8 << 20

// decodeJSON strictly decodes one JSON value from the request body.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	// Trailing garbage after the JSON value is a malformed request too.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("invalid request body: trailing data after JSON value")
	}
	return nil
}

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
