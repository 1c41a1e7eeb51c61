package journal

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/fault"
	_ "repro/internal/online" // registers ReplanDER
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

func testModel() power.Model { return power.Unit(3, 0.05) }

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	st, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// countingJournal passes records to a Writer and tallies what it
// wrote: frame bytes, checkpoint records, and the wall time of Append.
type countingJournal struct {
	w           *Writer
	bytes       int64
	checkpoints int
	elapsed     time.Duration
}

func (j *countingJournal) Append(rec *dispatch.Record) error {
	before := j.w.deltaBytes
	t0 := time.Now()
	err := j.w.Append(rec)
	j.elapsed += time.Since(t0)
	switch {
	case err != nil:
	case rec.Kind == dispatch.RecCreate || rec.Kind == dispatch.RecCheckpoint:
		j.bytes += j.w.checkpointBytes
		if rec.Kind == dispatch.RecCheckpoint {
			j.checkpoints++
		}
	default:
		j.bytes += j.w.deltaBytes - before
	}
	return err
}

// keepAll passes records to a Writer but not its checkpoint requests
// (the Writer marks a copy), so a session's whole history stays in
// the log.
type keepAll struct{ w *Writer }

func (j keepAll) Append(rec *dispatch.Record) error {
	cp := *rec
	return j.w.Append(&cp)
}

// driveSession runs a deterministic journaled workload: nbatch arrival
// batches of two tasks each, synchronous re-plans, optional finish.
func driveSession(t *testing.T, j dispatch.Journal, nbatch int, finish bool) *dispatch.Session {
	t.Helper()
	s, err := dispatch.New(dispatch.Config{
		Cores:     2,
		Model:     testModel(),
		SkipRatio: true,
		Journal:   j,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < nbatch; i++ {
		at := float64(i)
		batch := task.Set{
			{ID: 0, Release: at, Work: 0.4, Deadline: at + 2.5},
			{ID: 1, Release: at + 0.1, Work: 0.6, Deadline: at + 3.5},
		}
		if _, _, err := s.Arrive(ctx, at, batch); err != nil {
			t.Fatalf("Arrive(%d): %v", i, err)
		}
	}
	if finish {
		if _, err := s.Finish(ctx); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}
	return s
}

func restoreAndFinish(t *testing.T, snap *dispatch.Snapshot) *dispatch.FinalReport {
	t.Helper()
	ctx := context.Background()
	s, err := dispatch.Restore(ctx, snap, dispatch.Config{SkipRatio: true})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer s.Close()
	f, err := s.Finish(ctx)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return f
}

func TestRoundTripFinished(t *testing.T) {
	st := openStore(t, Options{Fsync: FsyncAlways})
	w, err := st.Writer("s1")
	if err != nil {
		t.Fatalf("Writer: %v", err)
	}
	s := driveSession(t, w, 6, true)
	defer s.Close()
	stats := s.Stats()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := st.Replay("s1")
	if r.Err != nil {
		t.Fatalf("Replay: %v", r.Err)
	}
	if !r.Finished || r.FinishReason != "finished" {
		t.Fatalf("finished=%v reason=%q, want finished", r.Finished, r.FinishReason)
	}
	if r.Snapshot == nil {
		t.Fatal("nil snapshot")
	}
	if r.Snapshot.Commits != stats.Commits || r.Snapshot.Replans != stats.Replans {
		t.Fatalf("counters diverged: replayed commits=%d replans=%d, live %d/%d",
			r.Snapshot.Commits, r.Snapshot.Replans, stats.Commits, stats.Replans)
	}
	if math.Abs(r.Snapshot.Realized-stats.RealizedEnergy) > 1e-9 {
		t.Fatalf("realized energy diverged: %g vs %g", r.Snapshot.Realized, stats.RealizedEnergy)
	}
	if len(r.Snapshot.Committed) != len(s.Committed()) {
		t.Fatalf("committed length diverged: %d vs %d", len(r.Snapshot.Committed), len(s.Committed()))
	}
}

func TestRecoveryMidRun(t *testing.T) {
	st := openStore(t, Options{Fsync: FsyncNever})
	w, err := st.Writer("s1")
	if err != nil {
		t.Fatalf("Writer: %v", err)
	}
	s := driveSession(t, w, 5, false)
	live := s.Committed()
	stats := s.Stats()
	// "Crash": no Finish, no Close ordering niceties.
	s.Close()
	w.Close()

	r := st.Replay("s1")
	if r.Err != nil {
		t.Fatalf("Replay: %v", r.Err)
	}
	if r.Finished {
		t.Fatal("unfinished session replayed as finished")
	}
	if len(r.Snapshot.Committed) != len(live) {
		t.Fatalf("committed prefix diverged: %d vs %d segments", len(r.Snapshot.Committed), len(live))
	}
	for i, seg := range live {
		if r.Snapshot.Committed[i] != seg {
			t.Fatalf("segment %d diverged: %+v vs %+v", i, r.Snapshot.Committed[i], seg)
		}
	}
	f := restoreAndFinish(t, r.Snapshot)
	if len(f.Violations) != 0 {
		t.Fatalf("restored session finished with violations: %v", f.Violations)
	}
	if f.Completed+f.Shed != stats.Tasks {
		t.Fatalf("recovered run lost tasks: completed %d + shed %d of %d", f.Completed, f.Shed, stats.Tasks)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	t.Run("rotation", func(t *testing.T) {
		st := openStore(t, Options{Fsync: FsyncNever, SegmentBytes: 512})
		w, err := st.Writer("s1")
		if err != nil {
			t.Fatal(err)
		}
		s := driveSession(t, keepAll{w}, 8, false) // no checkpoints: segments accumulate
		defer s.Close()
		w.Close()
		dir, _ := st.SessionDir("s1")
		segs, _ := listSegments(dir)
		if len(segs) < 2 {
			t.Fatalf("expected rotation to produce >= 2 segments, have %d", len(segs))
		}
		r := st.Replay("s1")
		if r.Err != nil {
			t.Fatalf("Replay across segments: %v", r.Err)
		}
		if got := len(r.Snapshot.Tasks); got != 16 {
			t.Fatalf("replayed %d tasks, want 16", got)
		}
	})
	t.Run("compaction", func(t *testing.T) {
		st := openStore(t, Options{Fsync: FsyncNever, SegmentBytes: 512})
		w, err := st.Writer("s1")
		if err != nil {
			t.Fatal(err)
		}
		j := &countingJournal{w: w}
		s := driveSession(t, j, 8, false) // a checkpoint every ~512 delta bytes
		defer s.Close()
		w.Close()
		if j.checkpoints == 0 {
			t.Fatal("no checkpoint written")
		}
		dir, _ := st.SessionDir("s1")
		segs, _ := listSegments(dir)
		if len(segs) == 0 || segs[0].index == 1 {
			t.Fatalf("compaction never deleted the oldest segment (have %d segments from %v)",
				len(segs), segs[0].index)
		}
		r := st.Replay("s1")
		if r.Err != nil {
			t.Fatalf("Replay after compaction: %v", r.Err)
		}
		if got := len(r.Snapshot.Tasks); got != 16 {
			t.Fatalf("replayed %d tasks, want 16", got)
		}
	})
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []Policy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			st := openStore(t, Options{Fsync: pol, FsyncInterval: 5 * time.Millisecond})
			w, err := st.Writer("s1")
			if err != nil {
				t.Fatal(err)
			}
			s := driveSession(t, w, 3, true)
			defer s.Close()
			if pol == FsyncInterval {
				time.Sleep(25 * time.Millisecond) // let the background sync tick
			}
			w.Close()
			r := st.Replay("s1")
			if r.Err != nil || !r.Finished {
				t.Fatalf("policy %s: err=%v finished=%v", pol, r.Err, r.Finished)
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"Interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"", FsyncInterval, true},
		{"sometimes", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
}

// TestCrashAtEveryRecordBoundary replays every record-aligned prefix of
// a real session log: each must fold without error into a state that
// restores and finishes with zero validator findings.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	st := openStore(t, Options{Fsync: FsyncNever, SegmentBytes: 1 << 30})
	w, err := st.Writer("s1")
	if err != nil {
		t.Fatal(err)
	}
	s := driveSession(t, w, 5, true)
	defer s.Close()
	w.Close()
	dir, _ := st.SessionDir("s1")
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("want a single segment, have %d", len(segs))
	}
	buf, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int
	if _, tail, _ := scanFrames(buf, func(p []byte) error { return nil }); tail != tailClean {
		t.Fatalf("reference log not clean: %v", tail)
	}
	for off := 0; off < len(buf); {
		n := int(uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24)
		off += frameHeader + n
		bounds = append(bounds, off)
	}
	for i, b := range bounds {
		prefixDir := filepath.Join(t.TempDir(), "s1")
		if err := os.MkdirAll(prefixDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(prefixDir, "00000001.wal"), buf[:b], 0o644); err != nil {
			t.Fatal(err)
		}
		r := ReplayDir("s1", prefixDir)
		if r.Err != nil {
			t.Fatalf("prefix %d (records 0..%d): %v", b, i, r.Err)
		}
		if r.Truncated {
			t.Fatalf("prefix %d: boundary-aligned prefix reported torn", b)
		}
		if r.Snapshot == nil || r.Finished {
			continue
		}
		f := restoreAndFinish(t, r.Snapshot)
		if len(f.Violations) != 0 {
			t.Fatalf("prefix after record %d: violations %v", i, f.Violations)
		}
	}
}

func TestTornTailTruncates(t *testing.T) {
	st := openStore(t, Options{Fsync: FsyncNever})
	w, err := st.Writer("s1")
	if err != nil {
		t.Fatal(err)
	}
	s := driveSession(t, w, 4, false)
	defer s.Close()
	w.Close()
	dir, _ := st.SessionDir("s1")
	segs, _ := listSegments(dir)
	path := segs[len(segs)-1].path
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: plausible header, half the payload missing.
	f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, '{', '}'})
	f.Close()

	r := st.Replay("s1")
	if r.Err != nil {
		t.Fatalf("torn tail must fold cleanly, got %v", r.Err)
	}
	if !r.Truncated {
		t.Fatal("torn tail not reported")
	}
	fr := restoreAndFinish(t, r.Snapshot)
	if len(fr.Violations) != 0 {
		t.Fatalf("violations after torn-tail recovery: %v", fr.Violations)
	}
	// Reopening the writer repairs the tail so appends stay aligned.
	w2, err := st.Writer("s1")
	if err != nil {
		t.Fatalf("Writer after torn tail: %v", err)
	}
	if err := w2.Append(&dispatch.Record{Kind: dispatch.RecError, Reason: "post-repair"}); err != nil {
		t.Fatalf("Append after repair: %v", err)
	}
	w2.Close()
	if r := st.Replay("s1"); r.Err != nil || r.Truncated {
		t.Fatalf("log not clean after repair: err=%v truncated=%v", r.Err, r.Truncated)
	}
}

func TestMidLogCorruptionFailsSoft(t *testing.T) {
	st := openStore(t, Options{Fsync: FsyncNever})
	w, err := st.Writer("s1")
	if err != nil {
		t.Fatal(err)
	}
	s := driveSession(t, w, 4, false)
	defer s.Close()
	w.Close()
	dir, _ := st.SessionDir("s1")
	segs, _ := listSegments(dir)
	path := segs[0].path
	buf, _ := os.ReadFile(path)
	if len(buf) < 64 {
		t.Fatalf("log too small to corrupt meaningfully (%d bytes)", len(buf))
	}
	buf[len(buf)/3] ^= 0x40 // flip a bit well before the tail
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	r := st.Replay("s1")
	if r.Err == nil {
		t.Fatal("mid-log corruption folded cleanly")
	}
	// And the writer refuses to continue a corrupt log.
	if _, err := st.Writer("s1"); err == nil {
		t.Fatal("Writer opened a corrupt log")
	}
}

// A checkpoint whose committed prefix names a task outside its table is
// corruption: replay reports it, rather than hand recovery a state that
// the restored session would index past its task table with.
func TestReplayRefusesMalformedCheckpoint(t *testing.T) {
	st := openStore(t, Options{Fsync: FsyncNever})
	for _, id := range []int{7, -1} {
		sid := fmt.Sprintf("task%d", id+1)
		w, err := st.Writer(sid)
		if err != nil {
			t.Fatal(err)
		}
		snap := &dispatch.Snapshot{
			Algorithm: "ReplanDER", Cores: 2, Model: testModel(),
			Tasks:     []dispatch.TaskState{{Work: 1, Remaining: 1, Deadline: 4}},
			Committed: []schedule.Segment{{Task: id, Core: 0, Start: 0, End: 1, Frequency: 1}},
		}
		if err := w.Append(&dispatch.Record{Kind: dispatch.RecCheckpoint, Snapshot: snap}); err != nil {
			t.Fatal(err)
		}
		w.Close()
		r := st.Replay(sid)
		if r.Err == nil {
			t.Fatalf("a checkpoint naming task %d of 1 replayed cleanly", id)
		}
		if r.Snapshot != nil || r.Records != 0 {
			t.Errorf("the refused checkpoint was folded: %d records, snapshot %v", r.Records, r.Snapshot)
		}
	}
}

func TestDiskFaultInjection(t *testing.T) {
	t.Run("short-write", func(t *testing.T) {
		inj := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.JournalShortWrite: 1}, Seed: 1})
		st := openStore(t, Options{Fsync: FsyncNever, Faults: inj})
		w, err := st.Writer("s1")
		if err != nil {
			t.Fatal(err)
		}
		err = w.Append(&dispatch.Record{Kind: dispatch.RecCreate, Snapshot: &dispatch.Snapshot{Algorithm: "ReplanDER", Cores: 2, Model: testModel()}})
		if err == nil {
			t.Fatal("short write not surfaced")
		}
		w.Close()
		// The write was truncated back: the log is empty but parseable.
		r := st.Replay("s1")
		if r.Err != nil || r.Snapshot != nil || r.Truncated {
			t.Fatalf("short write left residue: err=%v snap=%v torn=%v", r.Err, r.Snapshot != nil, r.Truncated)
		}
		var fired int64
		for _, c := range inj.Counts() {
			if c.Point == fault.JournalShortWrite {
				fired = c.Fired
			}
		}
		if fired == 0 {
			t.Fatal("injector bookkeeping lost the fault")
		}
	})
	t.Run("fsync-error", func(t *testing.T) {
		inj := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.JournalFsyncError: 1}, Seed: 1})
		st := openStore(t, Options{Fsync: FsyncAlways, Faults: inj})
		w, err := st.Writer("s1")
		if err != nil {
			t.Fatal(err)
		}
		err = w.Append(&dispatch.Record{Kind: dispatch.RecCreate, Snapshot: &dispatch.Snapshot{Algorithm: "ReplanDER", Cores: 2, Model: testModel()}})
		if err == nil {
			t.Fatal("fsync failure not surfaced")
		}
		w.Close()
		// The frame reached the page cache; replay still sees it.
		r := st.Replay("s1")
		if r.Err != nil || r.Snapshot == nil {
			t.Fatalf("record lost after fsync error: err=%v", r.Err)
		}
	})
	t.Run("torn-tail", func(t *testing.T) {
		inj := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.JournalTornTail: 1}, Seed: 1})
		st := openStore(t, Options{Fsync: FsyncNever, Faults: inj})
		w, err := st.Writer("s1")
		if err != nil {
			t.Fatal(err)
		}
		// The torn append reports success — the caller learns on the next one.
		if err := w.Append(&dispatch.Record{Kind: dispatch.RecCreate, Snapshot: &dispatch.Snapshot{Algorithm: "ReplanDER", Cores: 2, Model: testModel()}}); err != nil {
			t.Fatalf("torn append must report success, got %v", err)
		}
		if err := w.Append(&dispatch.Record{Kind: dispatch.RecError}); err == nil {
			t.Fatal("writer survived its own crash")
		}
		w.Close()
		r := st.Replay("s1")
		if r.Err != nil || !r.Truncated {
			t.Fatalf("torn tail not truncated: err=%v truncated=%v", r.Err, r.Truncated)
		}
	})
	t.Run("session-degrades", func(t *testing.T) {
		inj := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.JournalShortWrite: 0.5}, Seed: 7})
		st := openStore(t, Options{Fsync: FsyncNever, Faults: inj})
		w, err := st.Writer("s1")
		if err != nil {
			t.Fatal(err)
		}
		var hookErrs int
		s, err := dispatch.New(dispatch.Config{
			Cores: 2, Model: testModel(), SkipRatio: true, Journal: w,
			Hooks: dispatch.Hooks{JournalError: func(error) { hookErrs++ }},
		})
		if err != nil {
			// The very first (create) append may already hit the fault;
			// that is a legal outcome of attach-at-construction.
			return
		}
		defer s.Close()
		ctx := context.Background()
		for i := 0; i < 10; i++ {
			at := float64(i)
			_, _, err := s.Arrive(ctx, at, task.Set{{Release: at, Work: 0.3, Deadline: at + 2}})
			if err != nil {
				t.Fatalf("Arrive must survive journal faults, got %v", err)
			}
		}
		if hookErrs != 1 {
			t.Fatalf("JournalError hook fired %d times under a 50%% short-write rate, want exactly once", hookErrs)
		}
		if _, err := s.Finish(ctx); err != nil {
			t.Fatalf("Finish in degraded mode: %v", err)
		}
	})
}

func TestSealEvicted(t *testing.T) {
	st := openStore(t, Options{Fsync: FsyncNever})
	w, err := st.Writer("s1")
	if err != nil {
		t.Fatal(err)
	}
	s := driveSession(t, w, 3, false)
	s.Seal("evicted")
	s.Seal("evicted") // idempotent
	s.Close()
	w.Close()
	r := st.Replay("s1")
	if r.Err != nil {
		t.Fatalf("Replay: %v", r.Err)
	}
	if !r.Finished || r.FinishReason != "evicted" {
		t.Fatalf("sealed session not finished/evicted: %v %q", r.Finished, r.FinishReason)
	}
}

// TestRemoveClosesWriter checks that Remove closes a session's open
// Writer before it deletes the log, so the ID can open afresh, and that
// Remove still deletes a log whose Writer the caller closed first.
func TestRemoveClosesWriter(t *testing.T) {
	st := openStore(t, Options{Fsync: FsyncAlways})
	create := func(w *Writer) error {
		return w.Append(&dispatch.Record{Kind: dispatch.RecCreate, Snapshot: &dispatch.Snapshot{Algorithm: "ReplanDER", Cores: 2, Model: testModel()}})
	}
	for _, closeFirst := range []bool{false, true} {
		w, err := st.Writer("s1")
		if err != nil {
			t.Fatalf("closeFirst=%t: Writer: %v", closeFirst, err)
		}
		if err := create(w); err != nil {
			t.Fatal(err)
		}
		if closeFirst {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Remove("s1"); err != nil {
			t.Fatalf("closeFirst=%t: Remove: %v", closeFirst, err)
		}
		if err := create(w); err == nil {
			t.Fatalf("closeFirst=%t: append after Remove succeeded", closeFirst)
		}
		if ids, err := st.Sessions(); err != nil || len(ids) != 0 {
			t.Fatalf("closeFirst=%t: logs after Remove: %v %v", closeFirst, ids, err)
		}
	}
}

func TestRestartContinuesLog(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Writer("s1")
	if err != nil {
		t.Fatal(err)
	}
	s := driveSession(t, w, 4, false)
	preStats := s.Stats()
	s.Close()
	w.Close()
	st.Close()

	// "Restart": fresh store over the same dir, replay, restore with a
	// continuing journal, run more arrivals, finish.
	st2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r := st2.Replay("s1")
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Snapshot.Seq == 0 {
		t.Fatal("recovered snapshot lost the seq high-water mark")
	}
	w2, err := st2.Writer("s1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s2, err := dispatch.Restore(ctx, r.Snapshot, dispatch.Config{SkipRatio: true, Journal: w2})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer s2.Close()
	if got := s2.Stats(); got.Tasks != preStats.Tasks {
		t.Fatalf("restore lost tasks: %d vs %d", got.Tasks, preStats.Tasks)
	}
	at := preStats.Clock + 1
	if _, _, err := s2.Arrive(ctx, at, task.Set{{Release: at, Work: 0.5, Deadline: at + 2}}); err != nil {
		t.Fatalf("Arrive after restore: %v", err)
	}
	f, err := s2.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Violations) != 0 {
		t.Fatalf("violations after restart continuation: %v", f.Violations)
	}
	w2.Close()
	r2 := st2.Replay("s1")
	if r2.Err != nil || !r2.Finished {
		t.Fatalf("final replay: err=%v finished=%v", r2.Err, r2.Finished)
	}
	if got, want := len(r2.Snapshot.Tasks), preStats.Tasks+1; got != want {
		t.Fatalf("final replay has %d tasks, want %d", got, want)
	}
}

func TestEventDurabilityOrdering(t *testing.T) {
	// Events must reach subscribers only after their record is durable:
	// with a journal that fails every append after the first, the only
	// events a subscriber may see before the failure event are ones
	// whose append succeeded.
	st := openStore(t, Options{Fsync: FsyncNever})
	w, err := st.Writer("s1")
	if err != nil {
		t.Fatal(err)
	}
	s := driveSession(t, w, 3, false)
	defer s.Close()
	w.Close()
	r := st.Replay("s1")
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	// Every event in the recovered ring must have seq < recovered Seq,
	// and the ring must be strictly ordered.
	last := int64(-1)
	for _, ev := range r.Snapshot.Events {
		if ev.Seq <= last {
			t.Fatalf("event ring not strictly ordered: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
	}
	if last >= r.Snapshot.Seq {
		t.Fatalf("ring contains future seq %d >= high-water %d", last, r.Snapshot.Seq)
	}
	if last < 0 {
		t.Fatal("no events recovered")
	}
}

// FuzzJournalReplay mutates raw log bytes: replay must never panic, and
// every cleanly folded state, finished or not, must restore and finish
// without panicking. The input is read twice: as a whole log, and as
// the payload of one well-framed record behind a real session's log,
// so that dispatch.Replay's checks see arbitrary records. A state
// folded from the session's own frames must finish with zero validator
// findings.
func FuzzJournalReplay(f *testing.F) {
	st, err := Open(f.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	w, err := st.Writer("seed")
	if err != nil {
		f.Fatal(err)
	}
	s, err := dispatch.New(dispatch.Config{Cores: 2, Model: testModel(), SkipRatio: true, Journal: w})
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		at := float64(i)
		if _, _, err := s.Arrive(ctx, at, task.Set{
			{Release: at, Work: 0.4, Deadline: at + 2},
			{Release: at, Work: 0.3, Deadline: at + 3},
		}); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := s.Snapshot(ctx)
	if err != nil {
		f.Fatal(err)
	}
	s.Close()
	w.Close()
	dir, _ := st.SessionDir("seed")
	segs, _ := listSegments(dir)
	seed, err := os.ReadFile(segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	st.Close()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, '{'})
	// Records naming a task outside the table, which a session restored
	// from them would index with.
	for _, task := range []int{7, -1} {
		bad := *snap
		bad.Committed = []schedule.Segment{{Task: task, Core: 0, Start: 0, End: 0.5, Frequency: 0.8}}
		rec, err := json.Marshal(&dispatch.Record{Kind: dispatch.RecCheckpoint, Snapshot: &bad})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add([]byte(fmt.Sprintf(`{"kind":"commit","clock":9,"segments":[{"Task":%d,"Core":0,"Start":8,"End":9,"Frequency":1}]}`, task)))
		f.Add([]byte(fmt.Sprintf(`{"kind":"shed","clock":9,"shed_ids":[%d],"count":1}`, task)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := filepath.Join(t.TempDir(), "fz")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		log := filepath.Join(dir, "00000001.wal")
		if err := os.WriteFile(log, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fuzzRestore(t, ReplayDir("fz", dir), true) // must not panic, whatever the bytes
		if len(data) == 0 || len(data) > maxRecordBytes {
			return
		}
		if err := os.WriteFile(log, appendFrame(seed, data), 0o644); err != nil {
			t.Fatal(err)
		}
		fuzzRestore(t, ReplayDir("fz", dir), false)
	})
}

// appendFrame appends payload to log as one checksummed frame.
func appendFrame(log, payload []byte) []byte {
	log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
	log = binary.LittleEndian.AppendUint32(log, crc32.Checksum(payload, castagnoli))
	return append(log, payload...)
}

// fuzzRestore restores a cleanly folded state and finishes it. Failing
// soft is legal; a panic is not, and neither is an invalid schedule
// from a log the session wrote itself.
func fuzzRestore(t *testing.T, r *SessionReplay, written bool) {
	if r.Err != nil || r.Snapshot == nil {
		return
	}
	// A fuzzed record can ask for any core count; the ones a test can
	// afford to plan for are enough to reach every code path.
	if r.Snapshot.Cores > 64 {
		return
	}
	rs, err := dispatch.Restore(context.Background(), r.Snapshot, dispatch.Config{SkipRatio: true})
	if err != nil {
		return
	}
	defer rs.Close()
	fr, err := rs.Finish(context.Background())
	if err != nil {
		return
	}
	if written && len(fr.Violations) != 0 {
		t.Fatalf("recovered prefix finished with violations: %v", fr.Violations)
	}
}

// marshalJournal records json.Marshal of every record on its way to the
// writer: the bytes the log must hold. It requests a checkpoint every
// `every` delta records, besides the writer's own requests.
type marshalJournal struct {
	w           *Writer
	every       int
	deltas      int
	checkpoints int
	want        [][]byte
}

func (j *marshalJournal) Append(rec *dispatch.Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.want = append(j.want, b)
	switch rec.Kind {
	case dispatch.RecCheckpoint:
		j.checkpoints++
		j.deltas = 0
	case dispatch.RecCreate:
		j.deltas = 0
	default:
		if j.deltas++; j.deltas == j.every {
			rec.RequestCheckpoint()
		}
	}
	return j.w.Append(rec)
}

// requireFramesMatch checks that the frames on disk for session id are
// the last records j saw, byte for byte: compaction dropped the ones
// before the last checkpoint.
func requireFramesMatch(t *testing.T, st *Store, id string, j *marshalJournal) {
	t.Helper()
	dir, _ := st.SessionDir(id)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	for _, seg := range segs {
		buf, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		if _, tail, err := scanFrames(buf, func(p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		}); tail != tailClean || err != nil {
			t.Fatalf("%s: tail %v, %v", seg.path, tail, err)
		}
	}
	if len(got) == 0 || len(got) > len(j.want) {
		t.Fatalf("%s: %d frames on disk for %d records", id, len(got), len(j.want))
	}
	want := j.want[len(j.want)-len(got):]
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: frame %d of %d differs from json.Marshal:\ngot  %.300s\nwant %.300s", id, i, len(got), got[i], want[i])
		}
	}
}

// driveFrames runs a journaled session of n batches through j, which
// must checkpoint along the way, and seals it.
func driveFrames(t *testing.T, j *marshalJournal, n int) *dispatch.Snapshot {
	ctx := context.Background()
	s, err := dispatch.New(dispatch.Config{Cores: 3, Model: testModel(), SkipRatio: true, Journal: j})
	if err != nil {
		t.Error(err)
		return nil
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		at := float64(i) * 0.7
		batch := task.Set{{Release: at, Work: 0.5 + 0.1*float64(i%4), Deadline: at + 2.5}, {Release: at, Work: 0.3, Deadline: at + 1e-7 + 4}}
		if _, _, err := s.Arrive(ctx, at, batch); err != nil {
			t.Error(err)
			return nil
		}
	}
	if j.checkpoints == 0 {
		t.Error("no checkpoint before Seal")
	}
	snap, err := s.Snapshot(ctx)
	if err != nil {
		t.Error(err)
		return nil
	}
	s.Seal("evicted")
	return snap
}

// Every frame on disk holds json.Marshal of its record, byte for byte,
// across rotation, compaction and a restored session's log, although
// Append frames records in buffers the store reuses and the session
// splices the committed segments.
func TestFramesMatchJSON(t *testing.T) {
	st := openStore(t, Options{Fsync: FsyncNever, SegmentBytes: 4 << 10})
	w1, err := st.Writer("a")
	if err != nil {
		t.Fatal(err)
	}
	j1 := &marshalJournal{w: w1}
	snap := driveFrames(t, j1, 40)
	if t.Failed() {
		t.FailNow()
	}
	requireFramesMatch(t, st, "a", j1)

	w2, err := st.Writer("b")
	if err != nil {
		t.Fatal(err)
	}
	j2 := &marshalJournal{w: w2}
	ctx := context.Background()
	r, err := dispatch.Restore(ctx, snap, dispatch.Config{SkipRatio: true, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	r.Close()
	requireFramesMatch(t, st, "b", j2)
	if len(j1.want) < 50 || len(j2.want) < 2 {
		t.Fatalf("records: %d and %d", len(j1.want), len(j2.want))
	}
}

// Sessions appending at once share the store's spare frame buffers; each
// log still holds exactly its own records.
func TestConcurrentWritersMatchJSON(t *testing.T) {
	st := openStore(t, Options{Fsync: FsyncNever})
	js := make([]*marshalJournal, 2*keptFrames)
	var wg sync.WaitGroup
	for i := range js {
		w, err := st.Writer(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		js[i] = &marshalJournal{w: w, every: 10}
		wg.Add(1)
		go func(j *marshalJournal, n int) {
			defer wg.Done()
			driveFrames(t, j, n)
		}(js[i], 20+5*i)
	}
	wg.Wait()
	for i, j := range js {
		requireFramesMatch(t, st, fmt.Sprintf("c%d", i), j)
	}
}

// Journal bytes per arrival stay flat as a session grows from 200 to
// 800 batches, although every checkpoint carries the whole committed
// prefix (32 KiB segments, so that both sessions compact several times
// on the checkpoint-size side of the rule); and a log cut mid-session
// recovers the live counters exactly on a restarted store, and
// finishes there.
func TestJournalBytesLinear(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	type counters struct{ tasks, committed, replans, commits int }
	live := map[string]counters{}
	seq := map[string]int64{}
	perArrival := map[int]float64{}
	checkpoints := 0
	for _, n := range []int{200, 800} {
		id := fmt.Sprintf("n%d", n)
		w, err := st.Writer(id)
		if err != nil {
			t.Fatal(err)
		}
		j := &countingJournal{w: w}
		s := driveSession(t, j, n, false)
		snap, err := s.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		stats := s.Stats()
		live[id] = counters{stats.Tasks, len(snap.Committed), stats.Replans, stats.Commits}
		seq[id] = snap.Seq
		s.Close()
		if err := w.Close(); err != nil { // mid-session: no Finish
			t.Fatal(err)
		}
		perArrival[n] = float64(j.bytes) / float64(n)
		checkpoints += j.checkpoints
		t.Logf("%d batches: %.0f journal bytes per arrival, %d checkpoints", n, perArrival[n], j.checkpoints)
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint written")
	}
	if ratio := perArrival[800] / perArrival[200]; ratio > 1.5 {
		t.Fatalf("journal bytes per arrival grew %.2f× from 200 to 800 batches, want ≤ 1.5×", ratio)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store over the same directory recovers each
	// session's counters from its log, resumes it and finishes it.
	st2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for id, want := range live {
		r := st2.Replay(id)
		if r.Err != nil || r.Finished || r.Truncated {
			t.Fatalf("%s: replay err=%v finished=%v truncated=%v", id, r.Err, r.Finished, r.Truncated)
		}
		snap := r.Snapshot
		if got := (counters{len(snap.Tasks), len(snap.Committed), snap.Replans, snap.Commits}); got != want || snap.Seq != seq[id] {
			t.Fatalf("%s: recovered %+v seq %d, live %+v seq %d", id, got, snap.Seq, want, seq[id])
		}
		w, err := st2.Writer(id)
		if err != nil {
			t.Fatal(err)
		}
		s, err := dispatch.Restore(ctx, snap, dispatch.Config{SkipRatio: true, Journal: w})
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Violations) != 0 || f.Completed+f.Shed != want.tasks {
			t.Fatalf("%s: finished with %d violations, %d completed + %d shed of %d tasks",
				id, len(f.Violations), f.Completed, f.Shed, want.tasks)
		}
		s.Close()
		w.Close()
		if fin := st2.Replay(id); fin.Err != nil || !fin.Finished || len(fin.Snapshot.Tasks) != want.tasks {
			t.Fatalf("%s: final replay err=%v finished=%v", id, fin.Err, fin.Finished)
		}
	}
}
