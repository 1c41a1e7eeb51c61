package dispatch

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// DefaultMaxSessions bounds concurrently open sessions per Manager.
const DefaultMaxSessions = 256

// ManagerConfig tunes a Manager.
type ManagerConfig struct {
	// MaxSessions bounds open sessions (0 selects DefaultMaxSessions;
	// negative means unbounded).
	MaxSessions int
	// TTL evicts sessions idle (no Adopt/Get/touch) longer than this;
	// 0 disables eviction.
	TTL time.Duration
	// Now overrides the clock (tests); nil selects time.Now.
	Now func() time.Time
	// OnEvict observes TTL evictions, after the session is closed.
	OnEvict func(id string, s *Session)
}

type managed struct {
	s         *Session
	lastTouch time.Time
}

// Manager owns a set of live sessions: registration, lookup with TTL
// touch, eviction of idle sessions, and a graceful drain that runs
// every session to its horizon before closing the event streams.
type Manager struct {
	cfg ManagerConfig

	mu       sync.Mutex
	sessions map[string]*managed
	closed   bool

	stopJanitor chan struct{}
	janitorDone chan struct{}
}

// NewManager creates a Manager and starts its TTL janitor (when TTL>0).
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Manager{
		cfg:         cfg,
		sessions:    make(map[string]*managed),
		stopJanitor: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if cfg.TTL > 0 {
		go m.janitor()
	} else {
		close(m.janitorDone)
	}
	return m
}

// NewID returns a 16-hex-char random session ID for Adopt.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms.
		panic("dispatch: rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// ValidID reports whether id can name a session: 1 to 64 characters,
// each an ASCII letter, a digit, '-' or '_'. A journal names a session's
// log directory after its ID, so the rule also keeps an ID from
// reaching outside that directory. NewID always satisfies it.
func ValidID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// Adopt registers an already-built session under id: a fresh NewID, or
// one the caller keeps — the restored session's identity from the
// backend it migrated from, or the ID the cluster router hashed for
// shard placement. A refused session is closed. A duplicate ID is
// refused before the session limit is checked: retrying it cannot help.
func (m *Manager) Adopt(id string, s *Session) (err error) {
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if !ValidID(id) {
		return fmt.Errorf("dispatch: invalid session id %q", id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrSessionClosed
	}
	if m.sessions[id] != nil {
		return ErrDuplicateSession
	}
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		return ErrTooManySessions
	}
	m.sessions[id] = &managed{s: s, lastTouch: m.cfg.Now()}
	return nil
}

// Get returns the session for id (nil if unknown) and refreshes its TTL.
func (m *Manager) Get(id string) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.sessions[id]
	if e == nil {
		return nil
	}
	e.lastTouch = m.cfg.Now()
	return e.s
}

// Remove detaches and closes the session for id, reporting whether it
// existed.
func (m *Manager) Remove(id string) bool {
	m.mu.Lock()
	e := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if e == nil {
		return false
	}
	e.s.Close()
	return true
}

// Len returns the number of open sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// OpenBacklog sums unfinished tasks across all sessions (the live
// backlog-depth gauge).
func (m *Manager) OpenBacklog() int {
	total := 0
	// Stats takes each session's mutex; m.all() snapshots first so the
	// manager lock is not held across them.
	for _, s := range m.all() {
		total += s.Stats().Open
	}
	return total
}

// all snapshots the current sessions.
func (m *Manager) all() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, e := range m.sessions {
		out = append(out, e.s)
	}
	return out
}

// Drain finishes every session (running each to its horizon, which
// emits the final event to subscribers) and then closes the manager,
// tearing down every event stream. New sessions are refused once the
// drain starts. Safe to call more than once.
func (m *Manager) Drain(ctx context.Context) {
	m.mu.Lock()
	m.closed = true
	entries := make([]*managed, 0, len(m.sessions))
	for _, e := range m.sessions {
		entries = append(entries, e)
	}
	m.sessions = make(map[string]*managed)
	m.mu.Unlock()

	var wg sync.WaitGroup
	for _, e := range entries {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			_, _ = s.Finish(ctx)
			s.Close()
		}(e.s)
	}
	wg.Wait()
	m.stop()
}

// Close tears every session down without finishing them. Use Drain for
// a graceful stop.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	entries := make([]*managed, 0, len(m.sessions))
	for _, e := range m.sessions {
		entries = append(entries, e)
	}
	m.sessions = make(map[string]*managed)
	m.mu.Unlock()
	for _, e := range entries {
		e.s.Close()
	}
	m.stop()
}

func (m *Manager) stop() {
	m.mu.Lock()
	select {
	case <-m.stopJanitor:
	default:
		close(m.stopJanitor)
	}
	m.mu.Unlock()
	<-m.janitorDone
}

// janitor evicts idle sessions every TTL/4 (at least every 100ms).
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	period := m.cfg.TTL / 4
	if period < 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-m.stopJanitor:
			return
		case <-tick.C:
			m.evictIdle()
		}
	}
}

func (m *Manager) evictIdle() {
	now := m.cfg.Now()
	type victim struct {
		id string
		s  *Session
	}
	var victims []victim
	m.mu.Lock()
	for id, e := range m.sessions {
		if now.Sub(e.lastTouch) > m.cfg.TTL {
			victims = append(victims, victim{id, e.s})
			delete(m.sessions, id)
		}
	}
	m.mu.Unlock()
	for _, v := range victims {
		// A TTL eviction is a deliberate drop: seal the journal (final
		// checkpoint + finish record) so a restart garbage-collects the
		// log instead of resurrecting — and re-admitting arrivals for —
		// a session nobody wanted anymore.
		v.s.Seal("evicted")
		v.s.Close()
		if m.cfg.OnEvict != nil {
			m.cfg.OnEvict(v.id, v.s)
		}
	}
}
