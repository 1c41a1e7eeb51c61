// Package fault is a deterministic, seedable fault-injection framework
// for chaos-testing the serving stack. An Injector holds a per-point
// firing probability and a seeded RNG; callers ask Should(point) at each
// injection site and act out the fault themselves (panic, sleep past the
// deadline, return an error, corrupt a cache entry, reject a valid
// schedule, fail I/O transiently). The solver-entry faults are acted out
// in one place, BeforeSolve.
//
// Injection is always off by default: the process-wide injector is nil
// until Enable is called (cmd/schedd gates that behind -faults /
// SCHEDD_FAULTS), and tests construct private Injectors so parallel
// tests never share RNG state. With no injector enabled every site is a
// single atomic pointer load.
package fault

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site in the serving stack.
type Point string

// The injection points threaded through easched and internal/server.
const (
	// SolverPanic panics inside the solver call.
	SolverPanic Point = "solver_panic"
	// SolverDelay stalls the solver long enough to blow the per-request
	// solve deadline (the delay length is Plan.Delay).
	SolverDelay Point = "solver_delay"
	// AllocError fails the allocation stage with an error.
	AllocError Point = "alloc_error"
	// CacheCorrupt corrupts a stored solve-cache entry in place.
	CacheCorrupt Point = "cache_corrupt"
	// ValidatorReject makes the in-band guardrail reject a valid schedule.
	ValidatorReject Point = "validator_reject"
	// IOError fails a request with a transient I/O-style error the client
	// is expected to retry.
	IOError Point = "io_error"
	// JournalFsyncError fails the journal's fsync: the write landed in
	// the page cache but durability cannot be promised. The session
	// enters degraded (journal-broken) mode.
	JournalFsyncError Point = "journal_fsync_error"
	// JournalShortWrite cuts a journal frame write partway through and
	// reports the failure; the writer truncates back to the last good
	// record boundary (torn-tail repair at write time).
	JournalShortWrite Point = "journal_short_write"
	// JournalTornTail simulates a crash mid-append under a lazy fsync
	// policy: half a frame reaches the file, the append reports success,
	// and every later append fails as if the process had died. Replay
	// must truncate the torn tail cleanly.
	JournalTornTail Point = "journal_torn_tail"
)

// Points lists every known injection point in stable order.
func Points() []Point {
	return []Point{SolverPanic, SolverDelay, AllocError, CacheCorrupt, ValidatorReject, IOError,
		JournalFsyncError, JournalShortWrite, JournalTornTail}
}

func known(p Point) bool {
	for _, q := range Points() {
		if q == p {
			return true
		}
	}
	return false
}

// Error is the typed error returned for injected (non-panic) faults, so
// callers and tests can tell an injected failure from a real one.
type Error struct{ Point Point }

func (e *Error) Error() string { return fmt.Sprintf("fault: injected %s", e.Point) }

// Plan configures an Injector: the firing probability of each point, the
// stall length of SolverDelay, and the RNG seed. Points absent from
// Rates never fire and consume no randomness, so a sequence of draws is
// reproducible regardless of which other points are disabled.
type Plan struct {
	Rates map[Point]float64
	Delay time.Duration
	Seed  int64
}

// ParseRates parses a "point=rate,point=rate" spec (rates in [0, 1]),
// e.g. "solver_panic=0.1,solver_delay=0.05". An empty spec is an empty
// (never-firing) rate map.
func ParseRates(spec string) (map[Point]float64, error) {
	rates := make(map[Point]float64)
	if strings.TrimSpace(spec) == "" {
		return rates, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad spec term %q (want point=rate)", part)
		}
		p := Point(strings.TrimSpace(name))
		if !known(p) {
			return nil, fmt.Errorf("fault: unknown point %q (have %v)", name, Points())
		}
		r, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad rate for %s: %v", p, err)
		}
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("fault: rate %g for %s outside [0, 1]", r, p)
		}
		rates[p] = r
	}
	return rates, nil
}

// Injector decides, deterministically from its seed, whether each
// injection site fires. Safe for concurrent use; under concurrency the
// draw order (and so the exact firing pattern) follows the arrival
// order, but single-goroutine use is fully reproducible.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rates map[Point]float64
	delay time.Duration

	checked map[Point]*atomic.Int64
	fired   map[Point]*atomic.Int64
}

// New builds an Injector from plan. A zero Delay defaults to 100ms.
func New(plan Plan) *Injector {
	in := &Injector{
		rng:     rand.New(rand.NewSource(plan.Seed)),
		rates:   make(map[Point]float64, len(plan.Rates)),
		delay:   plan.Delay,
		checked: make(map[Point]*atomic.Int64, len(Points())),
		fired:   make(map[Point]*atomic.Int64, len(Points())),
	}
	for p, r := range plan.Rates {
		in.rates[p] = r
	}
	if in.delay <= 0 {
		in.delay = 100 * time.Millisecond
	}
	for _, p := range Points() {
		in.checked[p] = new(atomic.Int64)
		in.fired[p] = new(atomic.Int64)
	}
	return in
}

// Should reports whether point p fires at this site. Disabled points
// (rate 0 or absent) never fire and never consume randomness.
func (in *Injector) Should(p Point) bool {
	if in == nil {
		return false
	}
	if c := in.checked[p]; c != nil {
		c.Add(1)
	}
	rate, ok := in.rates[p]
	if !ok || rate <= 0 {
		return false
	}
	in.mu.Lock()
	hit := rate >= 1 || in.rng.Float64() < rate
	in.mu.Unlock()
	if hit {
		if c := in.fired[p]; c != nil {
			c.Add(1)
		}
	}
	return hit
}

// Err returns the typed injected error when p fires, nil otherwise.
func (in *Injector) Err(p Point) error {
	if in.Should(p) {
		return &Error{Point: p}
	}
	return nil
}

// BeforeSolve acts out the solver-entry faults, in order: it panics
// when SolverPanic fires, stalls for Plan.Delay (or until ctx ends) when
// SolverDelay fires, and returns the typed error when AllocError fires.
// A nil Injector does nothing.
func (in *Injector) BeforeSolve(ctx context.Context) error {
	if in == nil {
		return nil
	}
	if in.Should(SolverPanic) {
		panic("injected solver panic")
	}
	if in.Should(SolverDelay) {
		t := time.NewTimer(in.delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	return in.Err(AllocError)
}

// Counts returns the fired count of every point, sorted by point name.
type Count struct {
	Point Point
	Fired int64
}

// Counts reports the fired tallies of all points in stable order.
func (in *Injector) Counts() []Count {
	if in == nil {
		return nil
	}
	out := make([]Count, 0, len(in.fired))
	for _, p := range Points() {
		out = append(out, Count{Point: p, Fired: in.fired[p].Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// --- Process-wide registry (off by default) ---

var global atomic.Pointer[Injector]

// Enable installs in as the process-wide injector (nil disables).
func Enable(in *Injector) { global.Store(in) }

// Active returns the process-wide injector, or nil when injection is
// off (the default).
func Active() *Injector { return global.Load() }
