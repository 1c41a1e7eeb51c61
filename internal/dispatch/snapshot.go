package dispatch

import (
	"context"
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/schedule"
)

// TaskState is one task's persisted execution state. Completion is
// encoded as Done+CompletedAt (not a NaN sentinel) so a Snapshot
// round-trips through encoding/json.
type TaskState struct {
	Release     float64 `json:"release"`
	Work        float64 `json:"work"`
	Deadline    float64 `json:"deadline"`
	Remaining   float64 `json:"remaining"`
	ArrivedAt   float64 `json:"arrived_at"`
	Done        bool    `json:"done"`
	CompletedAt float64 `json:"completed_at,omitempty"`
	Shed        bool    `json:"shed,omitempty"`
}

// Snapshot is the serializable state of a session: enough to reconstruct
// the clock, the committed prefix, and every task's residual work. The
// in-flight plan suffix is deliberately NOT persisted — Restore re-plans
// the residual, which any registered policy can regenerate.
type Snapshot struct {
	Algorithm string             `json:"algorithm"`
	Cores     int                `json:"cores"`
	Model     power.Model        `json:"model"`
	Now       float64            `json:"now"`
	Realized  float64            `json:"realized_energy"`
	Replans   int                `json:"replans"`
	Commits   int                `json:"commits"`
	ShedCount int                `json:"shed"`
	Seq       int64              `json:"seq"`
	Tasks     []TaskState        `json:"tasks"`
	Committed []schedule.Segment `json:"committed"`
	// Events is the retained event-ring history at snapshot time. It is
	// populated only by journal checkpoints and replay (internal/journal)
	// so a restarted server can seed the SSE replay ring and clients
	// reconnect gaplessly. Session.Snapshot leaves it empty on purpose:
	// on the router's migration path the destination's stream starts at
	// the restore point, and replaying history there would re-deliver
	// events the pump has already renumbered.
	Events []Event `json:"events,omitempty"`
}

// Snapshot captures the session's state after draining pending
// arrivals, so the snapshot never contains an unplanned batch.
func (s *Session) Snapshot(ctx context.Context) (*Snapshot, error) {
	if err := s.Flush(ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.snapshotLocked()
	snap.Committed = append([]schedule.Segment(nil), snap.Committed...)
	return snap, nil
}

// snapshotLocked copies the current state, except that Committed shares
// the committed prefix; call with mu held. The prefix only ever grows,
// so the shared slice never changes, but a snapshot that leaves the
// session copies it.
func (s *Session) snapshotLocked() *Snapshot {
	snap := &Snapshot{
		Algorithm: s.cfg.Algorithm,
		Cores:     s.cfg.Cores,
		Model:     s.cfg.Model,
		Now:       s.now,
		Realized:  s.realized,
		Replans:   s.replans,
		Commits:   s.commits,
		ShedCount: s.shedCount,
		Seq:       s.seq,
		Tasks:     make([]TaskState, len(s.tasks)),
		Committed: s.committed[:len(s.committed):len(s.committed)],
	}
	for i, lt := range s.tasks {
		st := TaskState{
			Release:   lt.Release,
			Work:      lt.Work,
			Deadline:  lt.Deadline,
			Remaining: lt.Remaining,
			ArrivedAt: lt.ArrivedAt,
			Shed:      lt.Shed,
		}
		if !math.IsNaN(lt.Completed) {
			st.Done = true
			st.CompletedAt = lt.Completed
		}
		snap.Tasks[i] = st
	}
	return snap
}

// Restore rebuilds a live session from a snapshot. cfg supplies the
// runtime plumbing (Solve, Hooks, Debounce, Backlog, ...); Algorithm,
// Cores, and Model are taken from the snapshot. Unfinished tasks are
// re-planned immediately so the restored session holds a valid plan
// suffix before Restore returns.
func Restore(ctx context.Context, snap *Snapshot, cfg Config) (*Session, error) {
	if snap == nil {
		return nil, fmt.Errorf("dispatch: nil snapshot")
	}
	cfg.Algorithm = snap.Algorithm
	cfg.Cores = snap.Cores
	cfg.Model = snap.Model
	// A caller-supplied Solve is kept — the serving layer injects its
	// verified, breaker-gated pipeline here; only a nil Solve re-resolves
	// against the restored algorithm via the registry.
	//
	// A caller-supplied Journal is attached only after the restored state
	// is in place, so the log's first record is a checkpoint of that
	// state rather than a create record that would reset a replay fold.
	jnl := cfg.Journal
	cfg.Journal = nil
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.now = snap.Now
	s.realized = snap.Realized
	s.replans = snap.Replans
	s.commits = snap.Commits
	s.shedCount = snap.ShedCount
	s.seq = snap.Seq
	s.committed = append([]schedule.Segment(nil), snap.Committed...)
	s.tasks = make([]liveTask, len(snap.Tasks))
	for i, st := range snap.Tasks {
		lt := liveTask{
			Release:   st.Release,
			Work:      st.Work,
			Deadline:  st.Deadline,
			Remaining: st.Remaining,
			ArrivedAt: st.ArrivedAt,
			Completed: math.NaN(),
			Shed:      st.Shed,
		}
		if st.Done {
			lt.Completed = st.CompletedAt
		}
		switch {
		case st.Shed:
		case st.Done:
			s.completed++
		default:
			s.open++
			// Unfinished work re-enters the pending queue so the flush
			// below rebuilds the plan suffix.
			s.pending = append(s.pending, i)
		}
		s.tasks[i] = lt
	}
	if len(snap.Events) > 0 {
		// Journal recovery: re-seed the replay ring so SSE subscribers
		// that reconnect after a restart still get their history (and
		// can dedupe by seq — snap.Seq continues right after it).
		s.hub.seed(snap.Events)
	}
	s.mu.Unlock()
	if jnl != nil {
		if err := s.AttachJournal(jnl); err != nil {
			s.Close()
			return nil, err
		}
	}
	if err := s.Flush(ctx); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}
