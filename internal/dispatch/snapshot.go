package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/power"
	"repro/internal/schedule"
)

// TaskState is one admitted task's execution state: an entry of the
// session's task table, of a Snapshot's and of an arrival record's.
// Release is the *effective* release max(declared release, arrival
// time): a task cannot run before the session learns it exists.
// Completion is Done+CompletedAt (not a NaN sentinel), so the table
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
	// populated only by journal checkpoints and Replay, so a restarted
	// server can seed the SSE replay ring and clients reconnect
	// gaplessly. Session.Snapshot leaves it empty on purpose:
	// on the router's migration path the destination's stream starts at
	// the restore point, and replaying history there would re-deliver
	// events the pump has already renumbered.
	Events []Event `json:"events,omitempty"`
}

// Snapshot captures the session's state after draining pending
// arrivals, so the snapshot never contains an unplanned batch. Its
// Committed is a read-only view of the session's committed prefix
// (see Committed), nil when the prefix is empty; the rest is a copy.
func (s *Session) Snapshot(ctx context.Context) (*Snapshot, error) {
	if err := s.Flush(ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.snapshotLocked()
	if len(snap.Committed) == 0 {
		snap.Committed = nil
	}
	return snap, nil
}

// snapshotLocked copies the current state, except that Committed is a
// view of the committed prefix; call with mu held.
func (s *Session) snapshotLocked() *Snapshot {
	return &Snapshot{
		Algorithm: s.cfg.Algorithm,
		Cores:     s.cfg.Cores,
		Model:     s.cfg.Model,
		Now:       s.now,
		Realized:  s.realized,
		Replans:   s.replans,
		Commits:   s.commits,
		ShedCount: s.shedCount,
		Seq:       s.seq,
		Tasks:     append(make([]TaskState, 0, len(s.tasks)), s.tasks...),
		Committed: s.committed[:len(s.committed):len(s.committed)],
	}
}

// check is the well-formed-state rule that Restore and Replay share:
// the clock, the realized energy and every task parameter are finite,
// every task's work is positive, and every committed segment names a
// task in the table and has finite times and frequency. A session
// built from state that breaks it could index past its task table.
func (snap *Snapshot) check() error {
	if !finite(snap.Now, snap.Realized) {
		return errors.New("non-finite counters")
	}
	if err := checkTasks(snap.Tasks); err != nil {
		return err
	}
	return checkSegments(snap.Committed, len(snap.Tasks))
}

func checkTasks(ts []TaskState) error {
	for _, t := range ts {
		if !finite(t.Release, t.Work, t.Deadline, t.Remaining, t.ArrivedAt, t.CompletedAt) || t.Work <= 0 {
			return errors.New("task with non-finite or non-positive parameters")
		}
	}
	return nil
}

// checkSegments checks committed segments against a table of n tasks.
func checkSegments(segs []schedule.Segment, n int) error {
	for _, seg := range segs {
		if seg.Task < 0 || seg.Task >= n {
			return fmt.Errorf("segment references unknown task %d", seg.Task)
		}
		if !finite(seg.Start, seg.End, seg.Frequency) {
			return errors.New("non-finite segment")
		}
	}
	return nil
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Restore rebuilds a live session from a snapshot. cfg supplies the
// runtime plumbing (Solve, Hooks, Debounce, Backlog, ...); Algorithm,
// Cores, and Model are taken from the snapshot. Restore refuses a
// snapshot with a non-finite value, a task without positive work or a
// committed segment naming a task outside its table. Unfinished tasks
// are re-planned immediately so the restored session holds a valid plan
// suffix before Restore returns.
func Restore(ctx context.Context, snap *Snapshot, cfg Config) (*Session, error) {
	if snap == nil {
		return nil, fmt.Errorf("dispatch: nil snapshot")
	}
	if err := snap.check(); err != nil {
		return nil, fmt.Errorf("dispatch: snapshot: %w", err)
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
	s.tasks = slices.Clone(snap.Tasks)
	for i := range s.tasks {
		st := &s.tasks[i]
		if !st.Done {
			st.CompletedAt = 0 // only a completion has a time
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

// Replay folds a session's journal records, in log order, into the
// state they describe: the one owner of how a record changes a
// Snapshot. A create or checkpoint record resets the fold, the other
// kinds are deltas, and the counters are the last record's. Each record
// is checked first by the rule Restore applies, so a fold that took
// every record holds a state Restore accepts.
type Replay struct {
	// Snapshot is the state folded so far, its Events the last
	// EventHistory events; nil before the first create or checkpoint.
	Snapshot *Snapshot
	// Records counts the records applied.
	Records int
	// Finished reports a finish record: the session completed or was
	// deliberately evicted, and recovery must not resurrect it.
	// FinishReason is its reason ("finished", "evicted").
	Finished     bool
	FinishReason string
}

// Apply folds rec into r. A record it refuses leaves r unchanged and
// means the log is corrupt. The fold takes over a create or checkpoint
// record's Snapshot and changes it with the records that follow.
func (r *Replay) Apply(rec *Record) error {
	if err := r.check(rec); err != nil {
		return fmt.Errorf("%q record: %w", rec.Kind, err)
	}
	snap := r.Snapshot
	switch rec.Kind {
	case RecCreate, RecCheckpoint:
		snap = rec.Snapshot
		r.Snapshot = snap
	case RecArrival:
		snap.Tasks = append(snap.Tasks, rec.Tasks...)
	case RecCommit:
		snap.Committed = append(snap.Committed, rec.Segments...)
		for _, d := range rec.Deltas {
			ts := &snap.Tasks[d.Task]
			ts.Remaining, ts.Done, ts.CompletedAt = d.Remaining, d.Done, d.CompletedAt
		}
	case RecShed:
		for _, id := range rec.ShedIDs {
			snap.Tasks[id].Shed = true
		}
	case RecFinish:
		r.Finished, r.FinishReason = true, rec.Reason
	}
	snap.Now, snap.Seq, snap.Realized = rec.Clock, rec.Seq, rec.Realized
	snap.Replans, snap.Commits, snap.ShedCount = rec.Replans, rec.Commits, rec.ShedCount
	// The recovered history is as long as the live session's ring.
	snap.Events = append(snap.Events, rec.Events...)
	if over := len(snap.Events) - EventHistory; over > 0 {
		snap.Events = append(snap.Events[:0], snap.Events[over:]...)
	}
	r.Records++
	return nil
}

// check reports why rec cannot be applied to the state folded so far.
func (r *Replay) check(rec *Record) error {
	if !finite(rec.Clock, rec.Realized) {
		return errors.New("non-finite counters")
	}
	if rec.Kind == RecCreate || rec.Kind == RecCheckpoint {
		if rec.Snapshot == nil {
			return errors.New("no snapshot")
		}
		return rec.Snapshot.check()
	}
	if r.Snapshot == nil {
		return errors.New("before any create or checkpoint")
	}
	n := len(r.Snapshot.Tasks)
	switch rec.Kind {
	case RecArrival:
		return checkTasks(rec.Tasks)
	case RecCommit:
		if err := checkSegments(rec.Segments, n); err != nil {
			return err
		}
		for _, d := range rec.Deltas {
			if d.Task < 0 || d.Task >= n {
				return fmt.Errorf("delta references unknown task %d", d.Task)
			}
			if !finite(d.Remaining, d.CompletedAt) {
				return errors.New("delta with non-finite state")
			}
		}
	case RecShed:
		for _, id := range rec.ShedIDs {
			if id < 0 || id >= n {
				return fmt.Errorf("shed references unknown task %d", id)
			}
		}
	case RecReplan, RecError, RecFinish:
	default:
		return errors.New("unknown kind")
	}
	return nil
}
