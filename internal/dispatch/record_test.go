package dispatch

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// diffJournal checks every record a session journals: AppendJSON must
// return json.Marshal's bytes, or fail where it fails. It counts the
// records that splice a segment array (commits with segments, and
// snapshot records), so a test can tell the splices ran, and requests a
// checkpoint every `every` delta records. It keeps every record with
// its encoding, as a journal may, so checkKept can tell whether the
// session changed one after handing it over.
type diffJournal struct {
	t                     *testing.T
	records               int
	commits, checkpoints  int
	kinds                 map[RecordKind]int
	failAt                int // 1-based append that fails; 0 never
	every, deltas         int
	lastSnapshotCommitted int
	kept                  []*Record
	keptJSON              [][]byte
}

// checkKept fails the test if a kept record no longer encodes as it did
// when it was appended, through json.Marshal or AppendJSON.
func (j *diffJournal) checkKept() {
	j.t.Helper()
	for i, rec := range j.kept {
		if got, err := json.Marshal(rec); err != nil || !bytes.Equal(got, j.keptJSON[i]) {
			j.t.Errorf("kept %s record changed after Append (%v):\ngot  %s\nwant %s", rec.Kind, err, got, j.keptJSON[i])
		}
		if got, err := rec.AppendJSON(nil); err != nil || !bytes.Equal(got, j.keptJSON[i]) {
			j.t.Errorf("kept %s record's AppendJSON changed after Append (%v):\ngot  %s\nwant %s", rec.Kind, err, got, j.keptJSON[i])
		}
	}
}

func (j *diffJournal) Append(rec *Record) error {
	j.t.Helper()
	j.records++
	if j.kinds == nil {
		j.kinds = make(map[RecordKind]int)
	}
	j.kinds[rec.Kind]++
	if rec.Kind == RecCommit && len(rec.Segments) > 0 {
		j.commits++
	}
	if rec.Snapshot != nil {
		j.checkpoints++
		j.lastSnapshotCommitted = len(rec.Snapshot.Committed)
	}
	want, werr := json.Marshal(rec)
	got, gerr := rec.AppendJSON([]byte("frame"))
	switch {
	case werr != nil && gerr == nil:
		j.t.Errorf("record %d (%s): json.Marshal fails (%v), AppendJSON does not", j.records, rec.Kind, werr)
	case werr == nil && gerr != nil:
		j.t.Errorf("record %d (%s): AppendJSON: %v", j.records, rec.Kind, gerr)
	case werr == nil && !bytes.Equal(got, append([]byte("frame"), want...)):
		j.t.Errorf("record %d (%s) differs from json.Marshal:\ngot  %s\nwant frame%s", j.records, rec.Kind, got, want)
	}
	if werr == nil {
		j.kept, j.keptJSON = append(j.kept, rec), append(j.keptJSON, want)
	}
	if j.records == j.failAt {
		return fmt.Errorf("injected append failure")
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

// driveDiff feeds a Poisson trace of batches arrivals into s, shifted
// to start at from, and returns the last arrival time.
func driveDiff(t *testing.T, s *Session, rng *rand.Rand, batches int, from float64) float64 {
	t.Helper()
	tr, err := task.GenerateTrace(rng, task.ArrivalParams{
		Process: task.ArrivalPoisson, Batches: batches, Rate: 0.25, BatchLo: 1, BatchHi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	at := from
	for _, a := range tr {
		at = from + a.At
		for i := range a.Tasks {
			a.Tasks[i].Release += from
			a.Tasks[i].Deadline += from
		}
		if _, _, err := s.Arrive(ctx, at, a.Tasks); err != nil {
			t.Fatal(err)
		}
	}
	return at
}

// Every record of whole journaled sessions, through New, periodic
// checkpoints, backlog sheds, solver faults (error records and
// replan-failed sheds), Snapshot → Restore → AttachJournal, Seal and
// Finish, is byte-identical to json.Marshal, and commits with segments
// and checkpoints are among them.
func TestJournalRecordsMatchJSON(t *testing.T) {
	faulty := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.AllocError: 0.3}, Seed: 3})
	solve, err := registrySolve(DefaultAlgorithm)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cores: 3, Model: testModel(), SkipRatio: true, Backlog: 30, MaxRetries: 1,
		Solve: func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			if err := faulty.BeforeSolve(ctx); err != nil {
				return nil, 0, err
			}
			return solve(ctx, ts, m, pm)
		},
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))

	j1 := &diffJournal{t: t, every: 9}
	c1 := cfg
	c1.Journal = j1
	s1, err := New(c1)
	if err != nil {
		t.Fatal(err)
	}
	at := driveDiff(t, s1, rng, 60, 0)
	snap, err := s1.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot's committed prefix, like a journal checkpoint's and
	// Committed's, is a view of the session's, capped so that an append
	// to it cannot write into the session's array.
	mine, err := s1.Snapshot(ctx)
	if err != nil || len(mine.Committed) == 0 {
		t.Fatalf("snapshot: %v, %d committed", err, len(mine.Committed))
	}
	live := s1.Committed()
	if cap(mine.Committed) != len(mine.Committed) || cap(live) != len(live) || &mine.Committed[0] != &live[0] {
		t.Fatal("Snapshot's or Committed's prefix is not a capped view of the session's")
	}
	s1.Seal("evicted")
	if _, err := s1.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// The restored session's first record is a checkpoint of its whole
	// committed prefix.
	j2 := &diffJournal{t: t, every: 9}
	c2 := cfg
	c2.Journal = j2
	s2, err := Restore(ctx, snap, c2)
	if err != nil {
		t.Fatal(err)
	}
	if j2.checkpoints != 1 || j2.lastSnapshotCommitted != len(snap.Committed) || len(snap.Committed) == 0 {
		t.Fatalf("restore checkpoint: %d spliced, %d of %d committed segments", j2.checkpoints, j2.lastSnapshotCommitted, len(snap.Committed))
	}
	driveDiff(t, s2, rng, 60, at)
	if _, err := s2.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	for _, j := range []*diffJournal{j1, j2} {
		j.checkKept()
		for _, k := range []RecordKind{RecArrival, RecCommit, RecShed, RecReplan, RecError, RecCheckpoint, RecFinish} {
			if j.kinds[k] == 0 {
				t.Errorf("no %s record journaled: %v", k, j.kinds)
			}
		}
		if j.commits == 0 || j.checkpoints < 3 { // past the restore and Seal checkpoints
			t.Errorf("splices: %d commit records, %d checkpoints (records %v)", j.commits, j.checkpoints, j.kinds)
		}
	}
	if j1.kinds[RecCreate] != 1 {
		t.Errorf("create records: %d, want 1", j1.kinds[RecCreate])
	}
	var fired int64
	for _, c := range faulty.Counts() {
		if c.Point == fault.AllocError {
			fired = c.Fired
		}
	}
	if fired == 0 {
		t.Error("no solver fault fired")
	}
}

// A failed append puts the session into degraded mode: nothing more is
// journaled, and the records before it were exact.
func TestJournalRecordsAfterAppendFailure(t *testing.T) {
	j := &diffJournal{t: t, failAt: 20, every: 7}
	cfg := testConfig()
	cfg.Journal = j
	broken := 0
	cfg.Hooks.JournalError = func(error) { broken++ }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveDiff(t, s, rand.New(rand.NewSource(5)), 40, 0)
	if broken != 1 || j.records != 20 {
		t.Fatalf("broke %d times after %d records, want once after 20", broken, j.records)
	}
	if j.kinds[RecCheckpoint] == 0 {
		t.Fatalf("no checkpoint before the failure: %v", j.kinds)
	}
	if _, err := s.Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// fuzzFloats reads raw as little-endian float64 bit patterns, so the
// fuzzer reaches NaN, ±Inf, ±0 and subnormals.
func fuzzFloats(raw []byte, extra ...float64) []float64 {
	out := extra
	for ; len(raw) >= 8; raw = raw[8:] {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
	}
	return out
}

// FuzzJournalRecord builds records of every kind, with segment arrays
// wherever they apply, and requires AppendJSON to return json.Marshal's
// bytes, or an error where json.Marshal fails.
func FuzzJournalRecord(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var b []byte
		for _, v := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	sub := math.SmallestNonzeroFloat64
	f.Add(uint8(3), 0.0, math.Copysign(0, -1), 1.0, uint8(5), "<>&", bits(sub, -sub, 2.2250738585072014e-308))
	f.Add(uint8(1), 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6, uint8(3), "\u2028\u2029 line separators", bits(1e21, 9.999999999999999e20, -1e21))
	f.Add(uint8(0), 0.5, 1e-7, 1e21, uint8(4), "\xff\xfeinvalid", bits(1e-300, 123456.789, -0.25))
	f.Add(uint8(3), math.NaN(), 1.0, 2.0, uint8(2), "nan clock", bits(0.5, 1, 2))
	f.Add(uint8(1), 1.0, 2.0, 3.0, uint8(3), "inf segment", bits(math.Inf(1), math.Inf(-1), math.NaN()))
	f.Add(uint8(7), 1.5, -2.5, 3.5, uint8(6), `"kind":"x","segments":null}`, bits(7, 8, 9, 10, 11, 12))
	f.Add(uint8(3), 2.5, 0.25, 1e-9, uint8(8|16|5), "every field", bits(1, 2, 3, 4, 5, 6, 7))
	f.Add(uint8(1), 2.5, 0.25, 1e22, uint8(32|16|8|4), "every field", bits(1, 2, 3, 4, 5, 6, 7))
	f.Fuzz(func(t *testing.T, kind uint8, a, b, c float64, n uint8, reason string, raw []byte) {
		fs := fuzzFloats(raw, a, b, c)
		at := func(i int) float64 { return fs[i%len(fs)] }
		segs := make([]schedule.Segment, int(n%7))
		if len(segs) == 0 && kind%2 == 1 {
			segs = nil // a snapshot's committed: null
		}
		for i := range segs {
			segs[i] = schedule.Segment{Task: i*7 - 3, Core: int(n) - i, Start: at(3*i + 1), End: at(3*i + 2), Frequency: at(3*i + 3)}
		}
		kinds := []RecordKind{RecCreate, RecCheckpoint, RecArrival, RecCommit, RecShed, RecReplan, RecError, RecFinish}
		rec := &Record{
			Kind: kinds[int(kind)%len(kinds)], Clock: a, Seq: int64(n) - 3, Realized: b,
			Replans: int(kind), Commits: int(n), ShedCount: int(kind) - int(n),
			Reason: reason,
			Events: []Event{{Seq: 1, Type: EventShed, Clock: c, Task: -1, Count: int(n), Reason: reason, Energy: at(4)}},
		}
		// Any record may carry any field; its kind picks the splice.
		if n&8 != 0 {
			rec.ArrivedAt = a
			rec.Tasks = []TaskState{{Release: b, Work: c, Deadline: at(4), Remaining: at(5), ArrivedAt: a}}
		}
		if n&16 != 0 {
			rec.Deltas = []CommitDelta{{Task: int(n), Remaining: at(4), Done: kind%2 == 0, CompletedAt: at(5)}}
			rec.ShedIDs = []int{int(kind), -int(n)}
			rec.Count = int(n)
		}
		switch rec.Kind {
		case RecCreate, RecCheckpoint:
			rec.Snapshot = &Snapshot{
				Algorithm: reason, Cores: int(n), Model: power.Model{Gamma: a, Alpha: b, P0: c},
				Now: at(5), Realized: at(6), Seq: int64(kind),
				Tasks:     []TaskState{{Release: at(7), Work: at(8), Deadline: at(9), Remaining: a, Done: n%2 == 0, CompletedAt: b, Shed: true}},
				Committed: segs,
				Events:    []Event{{Seq: 2, Type: EventError, Reason: reason, LatencyMS: at(10)}},
			}
			if kind%3 == 0 {
				rec.Snapshot.Events = nil
			}
			if n&32 != 0 {
				rec.Segments = segs // encoded by encoding/json, ahead of the splice
			}
		default:
			rec.Segments = segs
		}
		if kind%5 == 0 {
			rec.Events = nil
		}
		want, werr := json.Marshal(rec)
		got, gerr := rec.AppendJSON(nil)
		switch {
		case werr != nil:
			if gerr == nil {
				t.Fatalf("json.Marshal fails (%v), AppendJSON does not: %s", werr, got)
			}
		case gerr != nil:
			t.Fatalf("AppendJSON: %v (json.Marshal: %s)", gerr, want)
		case !bytes.Equal(got, want):
			t.Fatalf("AppendJSON differs from json.Marshal:\ngot  %s\nwant %s", got, want)
		}
	})
}

// A checkpoint's AppendJSON measures its committed prefix before it
// writes it, so a prefix of 10 000 segments costs one buffer of about
// the record's size, not the several that append's growth steps would
// allocate. Skipped under -race, which drops pooled encoders at
// random.
func TestCheckpointAppendAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	rng := rand.New(rand.NewSource(3))
	snap := &Snapshot{Algorithm: DefaultAlgorithm, Cores: 4, Model: testModel(), Now: 2500.125}
	for i := 0; i < 400; i++ {
		r := rng.Float64() * 2500
		snap.Tasks = append(snap.Tasks, TaskState{Release: r, Work: rng.Float64() * 8, Deadline: r + 20*rng.Float64(), ArrivedAt: r, Done: true, CompletedAt: r + 5})
	}
	at := make([]float64, 4)
	for i := 0; i < 10000; i++ {
		core, task := i%4, rng.Intn(len(snap.Tasks))
		end := at[core] + rng.Float64()
		snap.Committed = append(snap.Committed, schedule.Segment{Task: task, Core: core, Start: at[core], End: end, Frequency: 0.5 + float64(task)/800})
		at[core] = end
	}
	for i := 0; i < 64; i++ {
		snap.Events = append(snap.Events, Event{Seq: int64(i), Type: EventCommit, Clock: float64(i) * 1.5, Task: -1, Count: 3, Energy: float64(i) * 0.75})
	}
	rec := &Record{Kind: RecCheckpoint, Clock: snap.Now, Seq: 64, Snapshot: snap}
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	// The least of a few runs, so that a collection that empties the
	// cache pool during one run does not count.
	least := uint64(math.MaxUint64)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := rec.AppendJSON(nil)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from json.Marshal (%v)", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a %d-byte checkpoint allocates %d bytes", len(want), least)
	if limit := uint64(len(want)) * 11 / 10; least > limit {
		t.Errorf("a %d-byte checkpoint allocates %d bytes, ceiling %d (1.1×)", len(want), least, limit)
	}
}
