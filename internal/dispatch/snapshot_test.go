package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/schedule"
	"repro/internal/task"
)

// committedSnapshot is a live session's snapshot with one finished task
// and one committed segment, and a second task still open.
func committedSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	ctx := context.Background()
	s := mustNew(t, testConfig())
	defer s.Close()
	if _, _, err := s.Arrive(ctx, 0, task.Set{{Work: 1, Deadline: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Arrive(ctx, 3, task.Set{{Work: 1, Release: 3, Deadline: 8}}); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tasks) != 2 || len(snap.Committed) == 0 || !snap.Tasks[0].Done {
		t.Fatalf("want a finished task and a committed prefix, have %+v", snap)
	}
	return snap
}

// malformedSnapshots derives, from a well-formed snapshot, one snapshot
// per way of breaking the rule Restore and Replay share.
func malformedSnapshots(good *Snapshot) map[string]*Snapshot {
	edit := func(f func(*Snapshot)) *Snapshot {
		snap := *good
		snap.Tasks = append([]TaskState(nil), good.Tasks...)
		snap.Committed = append([]schedule.Segment(nil), good.Committed...)
		f(&snap)
		return &snap
	}
	nan, inf := math.NaN(), math.Inf(1)
	return map[string]*Snapshot{
		// A 1-task table whose only committed segment names task 7 or −1.
		"committed task 7": edit(func(s *Snapshot) {
			s.Tasks, s.Committed = s.Tasks[:1], []schedule.Segment{{Task: 7, Core: 0, Start: 0, End: 1, Frequency: 1}}
		}),
		"committed task -1": edit(func(s *Snapshot) {
			s.Tasks, s.Committed = s.Tasks[:1], []schedule.Segment{{Task: -1, Core: 0, Start: 0, End: 1, Frequency: 1}}
		}),
		"segment past the table": edit(func(s *Snapshot) { s.Tasks = s.Tasks[:0] }),
		"non-finite segment":     edit(func(s *Snapshot) { s.Committed[0].End = inf }),
		"non-finite clock":       edit(func(s *Snapshot) { s.Now = nan }),
		"non-finite energy":      edit(func(s *Snapshot) { s.Realized = inf }),
		"non-finite deadline":    edit(func(s *Snapshot) { s.Tasks[1].Deadline = nan }),
		"non-finite completion":  edit(func(s *Snapshot) { s.Tasks[0].CompletedAt = inf }),
		"zero work":              edit(func(s *Snapshot) { s.Tasks[1].Work = 0 }),
	}
}

// Restore refuses a snapshot that breaks the well-formed-state rule,
// rather than building a session that panics later (a committed segment
// naming a task outside the table used to crash Finish with the session
// mutex held).
func TestRestoreRefusesMalformedSnapshot(t *testing.T) {
	ctx := context.Background()
	good := committedSnapshot(t)
	for name, snap := range malformedSnapshots(good) {
		t.Run(name, func(t *testing.T) {
			s, err := Restore(ctx, snap, testConfig())
			if err == nil {
				s.Close()
				t.Fatal("Restore accepted a malformed snapshot")
			}
		})
	}
	s, err := Restore(ctx, good, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.Completed != 2 || len(f.Violations) != 0 {
		t.Errorf("restored session: completed %d, violations %v", f.Completed, f.Violations)
	}
}

// foldJournal folds every record a session journals, after a round trip
// through encoding/json, and checks after each one that the fold equals
// the session's own snapshot apart from Events. It requests a
// checkpoint every `every` delta records.
type foldJournal struct {
	t             *testing.T
	s             *Session
	r             Replay
	every, deltas int
}

func (j *foldJournal) Append(rec *Record) error {
	j.t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		j.t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(b, &back); err != nil {
		j.t.Fatal(err)
	}
	if err := j.r.Apply(&back); err != nil {
		j.t.Fatalf("record %d (%s): %v", j.r.Records+1, rec.Kind, err)
	}
	got := *j.r.Snapshot
	got.Events = nil
	if g, w := mustJSON(j.t, &got), mustJSON(j.t, j.s.snapshotLocked()); !bytes.Equal(g, w) {
		j.t.Fatalf("after record %d (%s) the fold differs from the session:\nfold    %s\nsession %s", j.r.Records, rec.Kind, g, w)
	}
	switch rec.Kind {
	case RecCreate, RecCheckpoint:
		j.deltas = 0
	default:
		if j.deltas++; j.deltas == j.every {
			rec.RequestCheckpoint()
		}
	}
	return nil
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Replay rebuilds the session's state after every record of whole
// sessions: arrivals, backlog sheds, commits, replans, checkpoints,
// Restore and Finish.
func TestReplayFollowsSession(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig()
	cfg.Backlog = 3
	s := mustNew(t, cfg)
	defer s.Close()
	j := &foldJournal{t: t, s: s, every: 7}
	if err := s.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	at := driveDiff(t, s, rng, 60, 0)
	snap, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	r, err := Restore(ctx, snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	jr := &foldJournal{t: t, s: r, every: 5}
	if err := r.AttachJournal(jr); err != nil {
		t.Fatal(err)
	}
	driveDiff(t, r, rng, 30, at+1)
	for _, sess := range []*Session{s, r} {
		if _, err := sess.Finish(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, fj := range []*foldJournal{j, jr} {
		if !fj.r.Finished || fj.r.FinishReason != "finished" {
			t.Errorf("fold after Finish: finished %v (%q)", fj.r.Finished, fj.r.FinishReason)
		}
		if fj.r.Snapshot.ShedCount == 0 || fj.r.Snapshot.Commits == 0 {
			t.Errorf("the session shed %d and committed %d times; want both", fj.r.Snapshot.ShedCount, fj.r.Snapshot.Commits)
		}
	}
}

// Replay refuses every record that breaks the rule, or that has no state
// to apply to, and leaves its fold as it was.
func TestReplayRefusesMalformedRecords(t *testing.T) {
	good := committedSnapshot(t)
	checkpoint := func() *Record {
		snap := *good
		snap.Tasks = append([]TaskState(nil), good.Tasks...)
		snap.Committed = append([]schedule.Segment(nil), good.Committed...)
		return &Record{Kind: RecCheckpoint, Clock: snap.Now, Seq: snap.Seq, Snapshot: &snap}
	}
	seg := func(task int) []schedule.Segment {
		return []schedule.Segment{{Task: task, Core: 0, Start: 3, End: 4, Frequency: 1}}
	}
	records := map[string]*Record{
		"unknown kind":               {Kind: "bogus"},
		"checkpoint without state":   {Kind: RecCheckpoint},
		"non-finite clock":           {Kind: RecReplan, Clock: math.NaN()},
		"commit of task 7":           {Kind: RecCommit, Segments: seg(7)},
		"commit of task -1":          {Kind: RecCommit, Segments: seg(-1)},
		"non-finite commit":          {Kind: RecCommit, Segments: []schedule.Segment{{Task: 1, Start: 3, End: math.Inf(1), Frequency: 1}}},
		"delta of task 2":            {Kind: RecCommit, Deltas: []CommitDelta{{Task: 2}}},
		"non-finite delta":           {Kind: RecCommit, Deltas: []CommitDelta{{Task: 1, Remaining: math.NaN()}}},
		"shed of task 7":             {Kind: RecShed, ShedIDs: []int{7}},
		"arrival of zero work":       {Kind: RecArrival, Tasks: []TaskState{{Work: 0, Deadline: 9}}},
		"arrival of non-finite task": {Kind: RecArrival, Tasks: []TaskState{{Work: 1, Deadline: math.Inf(1)}}},
	}
	for name, snap := range malformedSnapshots(good) {
		records["checkpoint with "+name] = &Record{Kind: RecCheckpoint, Snapshot: snap}
	}
	for name, rec := range records {
		t.Run(name, func(t *testing.T) {
			var r Replay
			if err := r.Apply(checkpoint()); err != nil {
				t.Fatal(err)
			}
			before := mustJSON(t, &r)
			if err := r.Apply(rec); err == nil {
				t.Fatal("Apply took a malformed record")
			}
			if after := mustJSON(t, &r); !bytes.Equal(before, after) {
				t.Errorf("a refused record changed the fold:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
	var empty Replay
	for _, kind := range []RecordKind{RecArrival, RecCommit, RecShed, RecReplan, RecError, RecFinish} {
		if err := empty.Apply(&Record{Kind: kind}); err == nil {
			t.Errorf("%s record applied before any checkpoint", kind)
		}
	}
	if empty.Snapshot != nil || empty.Records != 0 || empty.Finished {
		t.Errorf("refused records changed an empty fold: %+v", empty)
	}
}

// A finished session's schedule is its committed prefix itself when
// every session ID is an effective ID and schedule.Add keeps every
// segment; otherwise it is a renumbered copy without the segments Add
// drops and those of shed tasks.
func TestFinalScheduleSharesPrefix(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		edit   func(*Snapshot)
		shared bool
		tasks  []int // the session task of each final segment
	}{
		{"shared", func(*Snapshot) {}, true, []int{0, 1, 2, 3}},
		{"zero duration", func(s *Snapshot) { s.Committed[2].End = s.Committed[2].Start }, false, []int{0, 1, 3}},
		{"shed task", func(s *Snapshot) { s.Tasks[1].Shed = true }, false, []int{0, 2, 3}},
	} {
		snap := agedSnapshot(4)
		tc.edit(snap)
		s, err := Restore(ctx, snap, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		segs, prefix := f.Schedule.Segments, s.Committed()
		if shared := &segs[0] == &prefix[0]; shared != tc.shared || cap(segs) != len(segs) && shared {
			t.Errorf("%s: shared %v (cap %d, len %d), want %v", tc.name, shared, cap(segs), len(segs), tc.shared)
		}
		if len(segs) != len(tc.tasks) {
			t.Fatalf("%s: %d segments, want %d", tc.name, len(segs), len(tc.tasks))
		}
		for i, seg := range segs {
			if id := f.TaskIDs[seg.Task]; id != tc.tasks[i] || seg.Start != prefix[id].Start {
				t.Errorf("%s: segment %d is %v of session task %d, want task %d", tc.name, i, seg, id, tc.tasks[i])
			}
		}
		s.Close()
	}
}
