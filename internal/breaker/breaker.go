// Package breaker provides the three-state circuit breaker shared by
// the schedd serving stack (per-algorithm solve breakers) and the
// schedrouter cluster tier (per-backend proxy breakers).
//
// The lifecycle is the classic closed → open → half-open machine:
// `threshold` consecutive failures open the breaker; while open every
// request is denied until the cooldown elapses, after which exactly one
// half-open probe is admitted. A successful probe closes the breaker; a
// failed one re-opens it with the cooldown doubled (capped), so a
// persistently broken dependency is probed at an exponentially decaying
// rate instead of being hammered.
//
// All methods on *Breaker and *Set are nil-safe: a nil breaker always
// admits and records nothing, so callers can disable breaking by
// configuration without sprinkling nil checks.
package breaker

import (
	"sort"
	"sync"
	"time"
)

// State is the classic three-state circuit-breaker lifecycle.
type State int32

const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a single circuit breaker. The zero value is not usable;
// construct with New. A nil *Breaker admits everything.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	maxCooldown time.Duration
	now         func() time.Time // injectable clock for deterministic tests

	state       State
	consecutive int           // consecutive failures while closed
	wait        time.Duration // current open cooldown
	until       time.Time     // when an open breaker next admits a probe
	probing     bool          // a half-open probe is in flight

	opened, halfOpened, closed int64 // transition counters (to-state)
}

// New returns a closed breaker. A nil now defaults to time.Now.
func New(threshold int, cooldown, maxCooldown time.Duration, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{
		threshold:   threshold,
		cooldown:    cooldown,
		maxCooldown: maxCooldown,
		now:         now,
	}
}

// Admit reports whether a request may run, and whether the admitted
// request is the single half-open probe. A denied request should skip
// straight to its fallback. A probe holder MUST settle its outcome —
// Success, Failure, or ProbeAborted — or the probe slot stays taken and
// every later request is denied. Nil-safe: a nil breaker always admits,
// never as a probe.
func (b *Breaker) Admit() (ok, probe bool) {
	if b == nil {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true, false
	case Open:
		if b.now().Before(b.until) {
			return false, false
		}
		b.state = HalfOpen
		b.halfOpened++
		b.probing = true
		return true, true
	case HalfOpen:
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
	return true, false
}

// Success records a completed, healthy outcome and closes the breaker.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Closed {
		b.state = Closed
		b.closed++
	}
	b.consecutive = 0
	b.wait = 0
	b.probing = false
}

// Failure records an attributable failure (error, panic, deadline blow,
// invalid result). In half-open it re-opens with doubled cooldown; in
// closed it opens once the consecutive-failure threshold is reached.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.probing = false
		b.wait *= 2
		if b.wait > b.maxCooldown {
			b.wait = b.maxCooldown
		}
		b.open()
	case Closed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.wait = b.cooldown
			b.open()
		}
	case Open:
		// A failure from a request admitted before the breaker opened;
		// nothing to do, the breaker is already open.
	}
}

// ProbeAborted records a half-open probe whose outcome says nothing
// about the dependency's health — client cancellation or admission
// pushback, not a verdict. The slot is released by re-opening with the
// current cooldown unchanged: the next probe runs after the same wait
// rather than doubling (Failure) or closing (Success).
func (b *Breaker) ProbeAborted() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.probing {
		b.probing = false
		b.open()
	}
}

// open transitions to open using the current b.wait (callers hold mu).
func (b *Breaker) open() {
	b.state = Open
	b.opened++
	b.until = b.now().Add(b.wait)
	b.consecutive = 0
}

// Stat is one breaker's observable state for metrics.
type Stat struct {
	Name                       string
	State                      State
	Opened, HalfOpened, Closed int64
}

// Stat reports the breaker's observable state under the given name.
// Nil-safe: a nil breaker reports closed with zero counters.
func (b *Breaker) Stat(name string) Stat {
	if b == nil {
		return Stat{Name: name, State: Closed}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state
	// An open breaker whose cooldown has elapsed is probe-eligible — the
	// next Admit lets a request through — so observers must not see it
	// as open: readiness gates on AllOpen, and a balancer honoring a
	// 503 /readyz would stop sending the very requests that drive the
	// open→half-open transition, wedging the server unready forever.
	if st == Open && !b.now().Before(b.until) {
		st = HalfOpen
	}
	return Stat{
		Name: name, State: st,
		Opened: b.opened, HalfOpened: b.halfOpened, Closed: b.closed,
	}
}

// Set lazily owns one breaker per name. A nil Set (or one built with
// threshold <= 0) disables breaking entirely.
type Set struct {
	mu          sync.Mutex
	byName      map[string]*Breaker
	threshold   int
	cooldown    time.Duration
	maxCooldown time.Duration
	now         func() time.Time
}

// NewSet returns a set minting breakers with the given parameters, or
// nil (breaking disabled) when threshold <= 0.
func NewSet(threshold int, cooldown, maxCooldown time.Duration, now func() time.Time) *Set {
	if threshold <= 0 {
		return nil
	}
	return &Set{
		byName:      make(map[string]*Breaker),
		threshold:   threshold,
		cooldown:    cooldown,
		maxCooldown: maxCooldown,
		now:         now,
	}
}

// Get returns the breaker for the given name, creating it closed.
// Nil-safe: a nil set returns a nil breaker, which admits everything.
func (s *Set) Get(name string) *Breaker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.byName[name]
	if !ok {
		b = New(s.threshold, s.cooldown, s.maxCooldown, s.now)
		s.byName[name] = b
	}
	return b
}

// Stats returns every breaker's state, sorted by name.
func (s *Set) Stats() []Stat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.byName))
	for name := range s.byName {
		names = append(names, name)
	}
	brs := make([]*Breaker, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		brs = append(brs, s.byName[name])
	}
	s.mu.Unlock()
	out := make([]Stat, len(names))
	for i, name := range names {
		out[i] = brs[i].Stat(name)
	}
	return out
}

// AllOpen reports whether at least one breaker exists and every one is
// open — the readiness probe's "nothing can be served" condition.
func (s *Set) AllOpen() bool {
	if s == nil {
		return false
	}
	for _, st := range s.Stats() {
		if st.State != Open {
			return false
		}
	}
	s.mu.Lock()
	n := len(s.byName)
	s.mu.Unlock()
	return n > 0
}
