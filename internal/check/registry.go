package check

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Runner produces a schedule for one instance together with the energy
// the scheduler itself reports for it. The reported energy is compared
// against the validator's independent re-integration, so runners must
// return their own accounting, not schedule.Energy recomputed after the
// fact (where the two differ, that difference is exactly what the
// cross-check exists to catch).
//
// Runners must honor ctx: when the request driving the run is canceled
// (schedd timeout, client disconnect) the runner should abort promptly
// and return ctx.Err() rather than solving to completion.
//
// Handoff: a successful run hands over a schedule that nothing else
// holds, neither the schedule nor its segments, so the caller owns both
// outright. A caller that is done with them may give them to
// schedule.Recycle, where a runner that builds with schedule.Reuse (the
// Section V schedulers, ReplanDER) picks them up: schedd recycles a
// one-shot solve's schedule once its reply is encoded, and a session a
// plan once a later one replaces it. A caller keeps, and never recycles,
// the schedule of a run it stopped waiting for; a runner never recycles
// a schedule it has returned.
type Runner func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error)

// Entry is one registered scheduler.
type Entry struct {
	// Name identifies the scheduler in reports (e.g. "S^F2", "YDS").
	Name string
	// Run produces the schedule and its reported energy.
	Run Runner
}

var registry struct {
	sync.Mutex
	entries map[string]Entry
}

// Register adds a scheduler to the differential cross-check. Scheduler
// packages call it from init() so that importing a scheduler is enough
// to have it audited; registering a duplicate or incomplete entry
// panics, since both are programmer errors.
func Register(e Entry) {
	if e.Name == "" || e.Run == nil {
		panic("check: Register needs a name and a runner")
	}
	registry.Lock()
	defer registry.Unlock()
	if registry.entries == nil {
		registry.entries = make(map[string]Entry)
	}
	if _, dup := registry.entries[e.Name]; dup {
		panic(fmt.Sprintf("check: scheduler %q registered twice", e.Name))
	}
	registry.entries[e.Name] = e
}

// Entries returns the registered schedulers sorted by name.
func Entries() []Entry {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Entry, 0, len(registry.entries))
	for _, e := range registry.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the scheduler registered under name.
func Lookup(name string) (Entry, bool) {
	registry.Lock()
	defer registry.Unlock()
	e, ok := registry.entries[name]
	return e, ok
}

// Names returns the sorted names of all registered schedulers.
func Names() []string {
	entries := Entries()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}
