package dispatch

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/segjson"
)

// Journal is the durability hook a session writes its lifecycle to.
// internal/journal provides the production implementation (a segmented,
// CRC-checksummed write-ahead log); the interface lives here so the
// session core does not depend on the storage layer. What a record means
// lives here too: Replay folds a log's records back into a Snapshot,
// and the storage layer only frames and checksums them.
//
// Append is called with the session mutex held, immediately after the
// state transition the record describes and *before* the record's
// events are published to subscribers: an event a client can observe is
// always already durable (per the journal's fsync policy), which is
// what makes dedupe-by-seq safe across a crash and restart. Append must
// therefore be fast and must not call back into the session.
//
// Append may keep rec, but must not modify it or anything it holds. The
// session never reuses what it hands over: a commit record's Segments
// are a view of the session's committed prefix, which is append-only,
// a snapshot's Committed is a capped view of the same prefix, and every
// other slice is the record's own.
//
// The journal decides when the log wants compacting: Append calls
// rec.RequestCheckpoint on a delta record once a checkpoint would pay
// for itself, and the session writes one right after that record. A
// wrapper that passes the record on passes the request on with it.
type Journal interface {
	Append(rec *Record) error
}

// RecordKind names one kind of journal record.
type RecordKind string

// The journal record vocabulary. Create and Checkpoint both carry a
// full Snapshot and reset replay state; the remaining kinds are deltas.
const (
	// RecCreate is the first record of a fresh session's log: a full
	// (empty) snapshot fixing algorithm, cores, and power model.
	RecCreate RecordKind = "create"
	// RecCheckpoint carries a full snapshot; everything before it in the
	// log is redundant and compactable.
	RecCheckpoint RecordKind = "checkpoint"
	// RecArrival is one admitted arrival batch (Tasks, in session task
	// ID order, appended to the task table) plus any backlog shed.
	RecArrival RecordKind = "arrival"
	// RecCommit freezes plan segments as committed (Segments) and
	// updates per-task execution state (Deltas).
	RecCommit RecordKind = "commit"
	// RecShed marks admitted tasks as load-shed (ShedIDs, Reason).
	RecShed RecordKind = "shed"
	// RecReplan is a successful residual re-plan. The plan suffix itself
	// is not persisted (Restore regenerates it); the record carries the
	// counters and the replan event.
	RecReplan RecordKind = "replan"
	// RecError is a failed residual solve that will be retried.
	RecError RecordKind = "error"
	// RecFinish marks the session finished (or deliberately evicted,
	// see Reason): recovery must not resurrect it.
	RecFinish RecordKind = "finish"
)

// CommitDelta is one task's execution-state update inside a RecCommit.
type CommitDelta struct {
	Task        int     `json:"task"`
	Remaining   float64 `json:"remaining"`
	Done        bool    `json:"done,omitempty"`
	CompletedAt float64 `json:"completed_at,omitempty"`
}

// Record is one entry of a session's journal. Every record carries the
// session's post-state counters, so replaying a log is a pure left
// fold (Replay.Apply): deltas mutate the task table / committed prefix,
// counters are last-record-wins, and Create/Checkpoint reset the fold
// outright.
// Events holds exactly the events made durable by this record, in
// order; they are published to subscribers only after Append returns.
type Record struct {
	Kind RecordKind `json:"kind"`

	// Post-state counters (all kinds).
	Clock     float64 `json:"clock"`
	Seq       int64   `json:"seq"`
	Realized  float64 `json:"realized_energy"`
	Replans   int     `json:"replans"`
	Commits   int     `json:"commits"`
	ShedCount int     `json:"shed"`

	// RecArrival: the admitted batch, in session task ID order.
	ArrivedAt float64     `json:"arrived_at,omitempty"`
	Tasks     []TaskState `json:"tasks,omitempty"`

	// RecCommit: newly committed segments + per-task updates.
	Segments []schedule.Segment `json:"segments,omitempty"`
	Deltas   []CommitDelta      `json:"deltas,omitempty"`

	// RecShed: the shed task IDs. Count may exceed len(ShedIDs) when
	// never-admitted arrivals were shed at the backlog bound.
	ShedIDs []int  `json:"shed_ids,omitempty"`
	Count   int    `json:"count,omitempty"`
	Reason  string `json:"reason,omitempty"` // RecShed, RecError, RecFinish

	// RecCreate / RecCheckpoint: the full session state.
	Snapshot *Snapshot `json:"snapshot,omitempty"`

	// Events made durable by this record.
	Events []Event `json:"events,omitempty"`

	// checkpointDue is the journal's request for a checkpoint after
	// this record (see RequestCheckpoint).
	checkpointDue bool
}

// RequestCheckpoint asks the session that journaled rec to write a
// checkpoint next, so that the log can drop what came before it. The
// session honours it on delta records; a journal calls it from Append.
func (rec *Record) RequestCheckpoint() { rec.checkpointDue = true }

// Where AppendJSON splices a segment array, encoding/json writes the
// fields after it as a value holding only them, minus the leading
// always-encoded fields of the zero value.
var (
	recordZero   = segjson.ZeroPrefix(Record{})
	snapshotZero = segjson.ZeroPrefix(Snapshot{})
)

// AppendJSON appends rec's JSON encoding to b: byte for byte what
// json.Marshal(rec) returns, and an error where it fails. encoding/json
// writes every field but the segment array that is most of a record (a
// commit record's Segments, a create or checkpoint record's
// Snapshot.Committed), which segjson appends straight into b, measured
// first so that b grows once.
//
// The splices follow the field order of Record and Snapshot, which is
// the log format: a field added to either must be added to the field
// lists below too.
func (rec *Record) AppendJSON(b []byte) ([]byte, error) {
	var out []byte
	var err error
	switch {
	case rec.Snapshot != nil:
		out, err = rec.appendCheckpoint(b)
	case len(rec.Segments) > 0:
		out, err = rec.appendCommit(b)
	default:
		return segjson.AppendJSON(b, rec, "", "")
	}
	if err != nil {
		// encoding/json reports the failure as json.Marshal does.
		return segjson.AppendJSON(b, rec, "", "")
	}
	return out, nil
}

// appendCommit writes the fields ahead of Segments, the segments, and
// the fields behind them.
func (rec *Record) appendCommit(b []byte) ([]byte, error) {
	head := Record{
		Kind: rec.Kind, Clock: rec.Clock, Seq: rec.Seq, Realized: rec.Realized,
		Replans: rec.Replans, Commits: rec.Commits, ShedCount: rec.ShedCount,
		ArrivedAt: rec.ArrivedAt, Tasks: rec.Tasks,
	}
	b, err := segjson.AppendJSON(b, &head, "", "}")
	if err != nil {
		return b, err
	}
	tail, err := segjson.AppendJSON(nil, &Record{
		Deltas: rec.Deltas, ShedIDs: rec.ShedIDs, Count: rec.Count, Reason: rec.Reason,
		Events: rec.Events,
	}, recordZero, "")
	if err != nil {
		return b, err
	}
	return segjson.Fields.Splice(append(b, `,"segments":`...), rec.Segments, tail)
}

// appendCheckpoint writes the fields ahead of Snapshot, the snapshot
// with its committed prefix, and the record's events.
func (rec *Record) appendCheckpoint(b []byte) ([]byte, error) {
	head := *rec
	head.Snapshot, head.Events = nil, nil
	b, err := segjson.AppendJSON(b, &head, "", "}")
	if err != nil {
		return b, err
	}
	b = append(b, `,"snapshot":`...)
	snap := *rec.Snapshot
	snap.Committed, snap.Events = nil, nil
	if b, err = segjson.AppendJSON(b, &snap, "", "null}"); err != nil {
		return b, err
	}
	// The fields behind the prefix are encoded first, so that Splice
	// makes room for them and the prefix at once.
	tail, err := segjson.AppendJSON(nil, &Snapshot{Events: rec.Snapshot.Events}, snapshotZero, "")
	if err != nil {
		return b, err
	}
	if tail, err = segjson.AppendJSON(tail, &Record{Events: rec.Events}, recordZero, ""); err != nil {
		return b, err
	}
	return segjson.Fields.Splice(b, rec.Snapshot.Committed, tail)
}

// journalLocked stamps rec with the post-state counters and the
// buffered (not-yet-published) events, appends it to the journal,
// publishes the events, and writes a checkpoint when the journal asks
// for one. On append failure the session enters degraded mode: the
// buffered events are published anyway (liveness over durability), an
// in-band error event is emitted, the JournalError hook fires, and no
// further appends are attempted. Call with mu held.
func (s *Session) journalLocked(rec *Record) {
	if s.cfg.Journal == nil || s.jbroken {
		s.publishBufferedLocked()
		return
	}
	rec.Clock = s.now
	rec.Seq = s.seq
	rec.Realized = s.realized
	rec.Replans = s.replans
	rec.Commits = s.commits
	rec.ShedCount = s.shedCount
	rec.Events = s.jbuf
	s.jbuf = nil
	if rec.Kind == RecCreate || rec.Kind == RecCheckpoint {
		// A checkpoint must be self-contained: replay seeds the event
		// ring from it so late SSE subscribers still get their history
		// after a restart.
		if rec.Snapshot != nil {
			rec.Snapshot.Events = append(s.hub.ring(), rec.Events...)
		}
	}
	err := s.cfg.Journal.Append(rec)
	for _, ev := range rec.Events {
		s.hub.emit(ev)
	}
	if err != nil {
		s.jbroken = true
		ev := Event{Type: EventError, Reason: "journal: " + err.Error()}
		ev.Seq = s.seq
		s.seq++
		ev.Clock = s.now
		ev.Task = -1
		s.hub.emit(ev)
		if s.cfg.Hooks.JournalError != nil {
			s.cfg.Hooks.JournalError(err)
		}
		return
	}
	switch rec.Kind {
	case RecCreate, RecCheckpoint, RecFinish:
	default:
		if rec.checkpointDue {
			s.checkpointLocked(RecCheckpoint)
		}
	}
}

// checkpointLocked journals a create or checkpoint record of the whole
// session state. Its snapshot shares the committed prefix, which only
// ever grows, instead of copying it. Call with mu held.
func (s *Session) checkpointLocked(kind RecordKind) {
	s.journalLocked(&Record{Kind: kind, Snapshot: s.snapshotLocked()})
}

// publishBufferedLocked drains any events buffered for a journal append
// that is no longer going to happen. Call with mu held.
func (s *Session) publishBufferedLocked() {
	for _, ev := range s.jbuf {
		s.hub.emit(ev)
	}
	s.jbuf = nil
}

// AttachJournal starts journaling an already-built session: the current
// state is written as the log's first record (a create record for a
// fresh session, a checkpoint for a restored one). It is an error to
// attach twice. Sessions built with Config.Journal set do this
// implicitly.
func (s *Session) AttachJournal(j Journal) error {
	if j == nil {
		return fmt.Errorf("dispatch: nil journal")
	}
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if s.cfg.Journal != nil {
		return fmt.Errorf("dispatch: journal already attached")
	}
	s.cfg.Journal = j
	kind := RecCheckpoint
	if s.seq == 0 && len(s.tasks) == 0 {
		kind = RecCreate
	}
	s.checkpointLocked(kind)
	if s.jbroken {
		return fmt.Errorf("dispatch: journal attach failed")
	}
	return nil
}

// Seal writes a final checkpoint + finish record without running the
// session to its horizon — the deliberate-drop path (TTL eviction),
// after which a restart will garbage-collect the log instead of
// resurrecting the session. Idempotent; Finish seals implicitly.
func (s *Session) Seal(reason string) {
	s.mu.Lock()
	defer s.unlock()
	if s.cfg.Journal == nil || s.jbroken || s.sealed {
		return
	}
	s.sealed = true
	s.checkpointLocked(RecCheckpoint)
	s.journalLocked(&Record{Kind: RecFinish, Reason: reason})
}
