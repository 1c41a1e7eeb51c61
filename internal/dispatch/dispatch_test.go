package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	_ "repro/internal/core" // register S^{I,F}{1,2}
	"repro/internal/online" // registers ReplanDER
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/task"
)

func testModel() power.Model { return power.Unit(3, 0.05) }

func testConfig() Config {
	return Config{Cores: 2, Model: testModel(), SkipRatio: true}
}

func mustNew(t *testing.T, cfg Config) *Session {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drainEvents collects everything currently buffered on ch without
// blocking for new events.
func drainEvents(ch <-chan Event) []Event {
	var out []Event
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

func countEvents(evs []Event, t EventType) int {
	n := 0
	for _, ev := range evs {
		if ev.Type == t {
			n++
		}
	}
	return n
}

func TestSessionLifecycle(t *testing.T) {
	cfg := testConfig()
	cfg.SkipRatio = false
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ch, cancel, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	ctx := context.Background()
	batches := []struct {
		at    float64
		tasks task.Set
	}{
		{0, task.Set{{ID: 0, Release: 0, Work: 4, Deadline: 10}, {ID: 1, Release: 0, Work: 2, Deadline: 6}}},
		{3, task.Set{{ID: 0, Release: 3, Work: 3, Deadline: 12}}},
		{7, task.Set{{ID: 0, Release: 7, Work: 1, Deadline: 9}}},
	}
	total := 0
	for _, b := range batches {
		adm, shed, err := s.Arrive(ctx, b.at, b.tasks)
		if err != nil {
			t.Fatalf("Arrive(%g): %v", b.at, err)
		}
		if shed != 0 || adm != len(b.tasks) {
			t.Fatalf("Arrive(%g): admitted %d shed %d", b.at, adm, shed)
		}
		total += adm
	}

	f, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.Completed != total {
		t.Errorf("completed %d of %d", f.Completed, total)
	}
	if len(f.Missed) != 0 {
		t.Errorf("missed deadlines: %v", f.Missed)
	}
	if len(f.Violations) != 0 {
		t.Errorf("validator violations: %v", f.Violations)
	}
	if f.Shed != 0 {
		t.Errorf("unexpected sheds: %d", f.Shed)
	}
	if f.CompetitiveRatio < 1-1e-6 {
		t.Errorf("competitive ratio %g below 1: realized %g vs optimal %g",
			f.CompetitiveRatio, f.RealizedEnergy, f.OptimalEnergy)
	}
	if f.Sim == nil {
		t.Fatal("no sim report")
	}
	if f.Sim.Preemptions < 0 || len(f.Sim.Utilization) != cfg.Cores {
		t.Errorf("sim report malformed: %+v", f.Sim)
	}
	// Finish is idempotent.
	f2, err := s.Finish(ctx)
	if err != nil || f2 != f {
		t.Errorf("Finish not idempotent: %v %v", f2, err)
	}
	if _, _, err := s.Arrive(ctx, 20, task.Set{{Work: 1, Deadline: 30}}); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("arrival after Finish: err=%v", err)
	}

	evs := drainEvents(ch)
	if countEvents(evs, EventReplan) != len(batches) {
		t.Errorf("want %d replans, events: %d", len(batches), countEvents(evs, EventReplan))
	}
	if countEvents(evs, EventComplete) != total {
		t.Errorf("want %d completions, got %d", total, countEvents(evs, EventComplete))
	}
	if countEvents(evs, EventFinal) != 1 {
		t.Errorf("want 1 final event, got %d", countEvents(evs, EventFinal))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("event sequence not increasing: %v then %v", evs[i-1], evs[i])
		}
	}
}

// A session fed each release as an arrival batch, with no debounce and
// the S^F2 policy, is exactly the event-driven replay of
// online.ReplanDER: same residuals, same per-episode pipeline, same
// realized energy. The instance is renumbered in release order first so
// both sides enumerate each residual identically — the DER pipeline's
// tie-breaking is order-sensitive, and a permuted residual realizes a
// different (equally valid) prefix.
// Finish takes the final report's execution profile from its audit;
// sim.Run, the independent simulator, must agree with it bit for bit
// on realized session schedules.
func TestFinishProfileMatchesSim(t *testing.T) {
	ctx := context.Background()
	for _, m := range []int{1, 4, 16} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := testConfig()
			cfg.Cores = m
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			driveDiff(t, s, rand.New(rand.NewSource(seed)), 10*m, 0)
			f, err := s.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			if len(f.Violations) != 0 || f.Sim == nil {
				t.Fatalf("m=%d seed=%d: violations %v, profile %v", m, seed, f.Violations, f.Sim)
			}
			rep, err := sim.Run(f.Schedule, cfg.Model)
			if err != nil || !rep.OK() {
				t.Fatalf("m=%d seed=%d: sim.Run: %v %v", m, seed, err, rep)
			}
			p := f.Sim
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !same(p.Energy, rep.Energy) || !same(p.Horizon, rep.Horizon) ||
				p.Preemptions != rep.Preemptions || p.Migrations != rep.Migrations || p.Wakeups != rep.Wakeups ||
				len(p.CoreBusy) != len(rep.CoreBusy) || len(p.Utilization) != len(rep.Utilization) {
				t.Fatalf("m=%d seed=%d: profile %+v, sim.Run %+v", m, seed, *p, *rep)
			}
			for k := range p.CoreBusy {
				if !same(p.CoreBusy[k], rep.CoreBusy[k]) || !same(p.Utilization[k], rep.Utilization[k]) {
					t.Fatalf("m=%d seed=%d core %d: busy %v/%v, utilization %v/%v", m, seed, k,
						p.CoreBusy[k], rep.CoreBusy[k], p.Utilization[k], rep.Utilization[k])
				}
			}
			if f.Commits == 0 || p.Horizon == 0 {
				t.Fatalf("m=%d seed=%d: empty session (%d commits)", m, seed, f.Commits)
			}
		}
	}
}

func TestReplanDEREquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts, err := task.GenerateRegime(rng, task.RegimeBursty, 14)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(ts, func(a, b int) bool { return ts[a].Release < ts[b].Release })
	ts.Renumber()
	m, pm := 3, testModel()

	ref, err := online.ReplanDER(ts, m, pm)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.Cores = m
	cfg.Algorithm = "S^F2"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Group tasks by release and arrive them in release order.
	byRelease := map[float64]task.Set{}
	var rels []float64
	for _, tk := range ts {
		if _, ok := byRelease[tk.Release]; !ok {
			rels = append(rels, tk.Release)
		}
		byRelease[tk.Release] = append(byRelease[tk.Release], tk)
	}
	sort.Float64s(rels)
	ctx := context.Background()
	for _, r := range rels {
		if _, _, err := s.Arrive(ctx, r, byRelease[r]); err != nil {
			t.Fatalf("Arrive(%g): %v", r, err)
		}
	}
	f, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Missed) != 0 || len(f.Violations) != 0 {
		t.Fatalf("missed %v violations %v", f.Missed, f.Violations)
	}
	if rel := math.Abs(f.RealizedEnergy-ref.Energy) / ref.Energy; rel > 1e-6 {
		t.Errorf("session energy %g vs ReplanDER %g (rel %g)", f.RealizedEnergy, ref.Energy, rel)
	}
	if f.Replans != ref.Replans {
		t.Errorf("session replans %d vs ReplanDER %d", f.Replans, ref.Replans)
	}
}

func TestDebounceCoalescing(t *testing.T) {
	cfg := testConfig()
	cfg.Debounce = time.Hour // never fires inside the test
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		at := float64(i)
		if _, _, err := s.Arrive(ctx, at, task.Set{{Work: 1, Release: at, Deadline: 60}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Replans; got != 0 {
		t.Fatalf("replanned inside the debounce window: %d", got)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Replans != 1 {
		t.Errorf("coalesced burst took %d replans, want 1", st.Replans)
	}
	if st.Pending != 0 {
		t.Errorf("pending %d after flush", st.Pending)
	}
	f, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.Completed != 5 || len(f.Missed) != 0 {
		t.Errorf("completed %d missed %v", f.Completed, f.Missed)
	}
}

func TestBacklogShedding(t *testing.T) {
	var shedHook atomic.Int64
	cfg := testConfig()
	cfg.Backlog = 2
	cfg.Debounce = time.Hour
	cfg.Hooks.Shed = func(n int) { shedHook.Add(int64(n)) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ch, cancel, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	batch := make(task.Set, 5)
	for i := range batch {
		batch[i] = task.Task{ID: i, Work: 1, Deadline: 100}
	}
	adm, shed, err := s.Arrive(context.Background(), 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	if adm != 2 || shed != 3 {
		t.Fatalf("admitted %d shed %d, want 2/3", adm, shed)
	}
	if got := shedHook.Load(); got != 3 {
		t.Errorf("shed hook saw %d", got)
	}
	evs := drainEvents(ch)
	found := false
	for _, ev := range evs {
		if ev.Type == EventShed && ev.Reason == "backlog" && ev.Count == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("no backlog shed event in %v", evs)
	}
	if st := s.Stats(); st.Shed != 3 || st.Open != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestExpiredPendingShedding(t *testing.T) {
	cfg := testConfig()
	cfg.Debounce = time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	// Task A's window closes at t=1, but the burst only flushes at t=5:
	// A can no longer run and must be shed, not poison the residual.
	if _, _, err := s.Arrive(ctx, 0, task.Set{{Work: 0.5, Deadline: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Arrive(ctx, 5, task.Set{{Work: 1, Release: 5, Deadline: 10}}); err != nil {
		t.Fatal(err)
	}
	f, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.Shed != 1 {
		t.Errorf("shed %d, want 1 (expired)", f.Shed)
	}
	if f.Completed != 1 || len(f.Missed) != 0 || len(f.Violations) != 0 {
		t.Errorf("completed %d missed %v violations %v", f.Completed, f.Missed, f.Violations)
	}
}

func TestSolveFailureShedsAfterRetries(t *testing.T) {
	fail := errors.New("boom")
	var calls atomic.Int64
	cfg := testConfig()
	cfg.MaxRetries = 1
	cfg.Solve = func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
		calls.Add(1)
		return nil, 0, fail
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ch, cancel, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, _, err := s.Arrive(context.Background(), 0, task.Set{{Work: 1, Deadline: 10}}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 { // initial + 1 retry
		t.Errorf("solver called %d times, want 2", got)
	}
	st := s.Stats()
	if st.Shed != 1 || st.Pending != 0 || st.Open != 0 {
		t.Errorf("stats after failure: %+v", st)
	}
	evs := drainEvents(ch)
	if countEvents(evs, EventError) != 2 {
		t.Errorf("want 2 error events, got %d", countEvents(evs, EventError))
	}
	found := false
	for _, ev := range evs {
		if ev.Type == EventShed && ev.Reason == "replan-failed" {
			found = true
		}
	}
	if !found {
		t.Errorf("no replan-failed shed event in %v", evs)
	}
}

func TestSolveFailureRecovers(t *testing.T) {
	var calls atomic.Int64
	real, err := registrySolve("ReplanDER")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.MaxRetries = 2
	cfg.Solve = func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
		if calls.Add(1) == 1 {
			return nil, 0, errors.New("transient")
		}
		return real(ctx, ts, m, pm)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, _, err := s.Arrive(ctx, 0, task.Set{{Work: 1, Deadline: 10}}); err != nil {
		t.Fatal(err)
	}
	f, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.Completed != 1 || f.Shed != 0 || len(f.Missed) != 0 {
		t.Errorf("final %+v", f)
	}
}

func TestArriveValidation(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	cases := []struct {
		name  string
		at    float64
		batch task.Set
	}{
		{"negative-at", -1, task.Set{{Work: 1, Deadline: 10}}},
		{"nan-at", math.NaN(), task.Set{{Work: 1, Deadline: 10}}},
		{"zero-work", 0, task.Set{{Work: 0, Deadline: 10}}},
		{"nan-work", 0, task.Set{{Work: math.NaN(), Deadline: 10}}},
		{"undoable", 5, task.Set{{Work: 1, Release: 0, Deadline: 4}}},
		{"one-bad-rejects-all", 0, task.Set{{Work: 1, Deadline: 10}, {Work: -1, Deadline: 10}}},
	}
	for _, tc := range cases {
		adm, shed, err := s.Arrive(ctx, tc.at, tc.batch)
		if !errors.Is(err, ErrBadArrival) {
			t.Errorf("%s: err=%v", tc.name, err)
		}
		if adm != 0 || shed != 0 {
			t.Errorf("%s: admitted %d shed %d", tc.name, adm, shed)
		}
	}
	if st := s.Stats(); st.Tasks != 0 {
		t.Errorf("rejected batches leaked tasks: %+v", st)
	}
}

func TestSubscribeReplayAndClose(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := s.Arrive(ctx, 0, task.Set{{Work: 1, Deadline: 10}}); err != nil {
		t.Fatal(err)
	}
	// Late subscriber sees the history.
	ch, cancel, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	evs := drainEvents(ch)
	if countEvents(evs, EventReplan) != 1 {
		t.Fatalf("replay missing replan event: %v", evs)
	}
	s.Close()
	if _, ok := <-ch; ok {
		// Drain any residue until the close is observed.
		for range ch {
		}
	}
	if _, _, err := s.Subscribe(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Subscribe after Close: %v", err)
	}
	s.Close() // idempotent
}

func TestSnapshotRestore(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first := task.Set{{ID: 0, Work: 3, Deadline: 8}, {ID: 1, Work: 2, Deadline: 12}}
	if _, _, err := s.Arrive(ctx, 0, first); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Arrive(ctx, 2, task.Set{{Work: 1, Release: 2, Deadline: 6}}); err != nil {
		t.Fatal(err)
	}

	snap, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots must round-trip through JSON (no NaN sentinels).
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	r, err := Restore(ctx, &back, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.now, s.now; got != want {
		t.Fatalf("restored clock %g, want %g", got, want)
	}

	// Continue both sessions identically; they must realize the same run.
	second := task.Set{{Work: 1.5, Release: 5, Deadline: 15}}
	for _, sess := range []*Session{s, r} {
		if _, _, err := sess.Arrive(ctx, 5, second); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := r.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Completed != fr.Completed || fs.Shed != fr.Shed {
		t.Errorf("diverged: %d/%d vs %d/%d", fs.Completed, fs.Shed, fr.Completed, fr.Shed)
	}
	if rel := math.Abs(fs.RealizedEnergy-fr.RealizedEnergy) / fs.RealizedEnergy; rel > 1e-9 {
		t.Errorf("restored energy %g vs original %g", fr.RealizedEnergy, fs.RealizedEnergy)
	}
	if len(fr.Violations) != 0 || len(fr.Missed) != 0 {
		t.Errorf("restored run: violations %v missed %v", fr.Violations, fr.Missed)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Cores: 0, Model: testModel()}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New(Config{Cores: 1}); err == nil {
		t.Error("zero model accepted")
	}
	if _, err := New(Config{Cores: 1, Model: testModel(), Algorithm: "no-such-policy"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// adoptNew builds a session from cfg and adopts it under a fresh ID,
// as the serving layer does.
func adoptNew(m *Manager, cfg Config) (string, *Session, error) {
	s, err := New(cfg)
	if err != nil {
		return "", nil, err
	}
	id := NewID()
	if err := m.Adopt(id, s); err != nil {
		return "", nil, err
	}
	return id, s, nil
}

func TestManagerLifecycle(t *testing.T) {
	m := NewManager(ManagerConfig{MaxSessions: 2})
	defer m.Close()
	id1, s1, err := adoptNew(m, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dup := mustNew(t, testConfig())
	if err := m.Adopt(id1, dup); !errors.Is(err, ErrDuplicateSession) {
		t.Errorf("duplicate id adopted: %v", err)
	}
	if _, _, err := adoptNew(m, testConfig()); err != nil {
		t.Fatal(err)
	}
	over := mustNew(t, testConfig())
	if err := m.Adopt(NewID(), over); !errors.Is(err, ErrTooManySessions) {
		t.Errorf("limit not enforced: %v", err)
	}
	// At the limit a duplicate is still a duplicate, which no retry fixes.
	dupAtLimit := mustNew(t, testConfig())
	if err := m.Adopt(id1, dupAtLimit); !errors.Is(err, ErrDuplicateSession) {
		t.Errorf("duplicate id at the limit: %v", err)
	}
	var badIDs []*Session
	for _, id := range []string{"", "a.b", "../x", strings.Repeat("x", 65)} {
		bad := mustNew(t, testConfig())
		if err := m.Adopt(id, bad); err == nil || ValidID(id) {
			t.Errorf("invalid id %q adopted (%v)", id, err)
		}
		badIDs = append(badIDs, bad)
	}
	if id := strings.Repeat("x", 64); !ValidID(id) || !ValidID(NewID()) || !ValidID("A-z_9") {
		t.Error("a valid id rejected")
	}
	// A refused session is closed, whatever the reason.
	for _, s := range append([]*Session{dup, over, dupAtLimit}, badIDs...) {
		if _, _, err := s.Subscribe(); !errors.Is(err, ErrSessionClosed) {
			t.Errorf("refused session still open: %v", err)
		}
	}
	if m.Get(id1) != s1 {
		t.Error("Get returned wrong session")
	}
	if m.Get("nope") != nil {
		t.Error("Get of unknown id")
	}
	if !m.Remove(id1) || m.Remove(id1) {
		t.Error("Remove semantics")
	}
	if m.Len() != 1 {
		t.Errorf("Len %d, want 1", m.Len())
	}
}

func TestManagerTTLEviction(t *testing.T) {
	clock := time.Unix(0, 0)
	var evicted atomic.Int64
	m := NewManager(ManagerConfig{
		TTL: time.Minute,
		Now: func() time.Time { return clock },
		OnEvict: func(id string, s *Session) {
			evicted.Add(1)
		},
	})
	defer m.Close()
	_, s, err := adoptNew(m, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	clock = clock.Add(2 * time.Minute)
	m.evictIdle()
	if evicted.Load() != 1 || m.Len() != 0 {
		t.Fatalf("evicted=%d len=%d", evicted.Load(), m.Len())
	}
	// The evicted session's streams are torn down.
	select {
	case _, ok := <-ch:
		if ok {
			t.Error("event after eviction")
		}
	case <-time.After(time.Second):
		t.Error("event channel not closed on eviction")
	}
}

func TestManagerDrain(t *testing.T) {
	m := NewManager(ManagerConfig{})
	ctx := context.Background()
	var chans []<-chan Event
	for i := 0; i < 3; i++ {
		_, s, err := adoptNew(m, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		ch, _, err := s.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		if _, _, err := s.Arrive(ctx, 0, task.Set{{Work: float64(i + 1), Deadline: 20}}); err != nil {
			t.Fatal(err)
		}
	}
	m.Drain(ctx)
	if m.Len() != 0 {
		t.Errorf("sessions after drain: %d", m.Len())
	}
	if _, _, err := adoptNew(m, testConfig()); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Adopt after drain: %v", err)
	}
	// Every stream saw its final event and then closed.
	for i, ch := range chans {
		finals := 0
		for ev := range ch { // terminates: drain closed the channels
			if ev.Type == EventFinal {
				finals++
			}
		}
		if finals != 1 {
			t.Errorf("session %d: %d final events", i, finals)
		}
	}
}

func TestRegistrySolveRejectsUnknown(t *testing.T) {
	if _, err := registrySolve("definitely-not-registered"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// Example-style check that the committed prefix really is immutable: a
// replan may only rewrite the plan suffix at times ≥ the clock.
func TestCommitPointsImmutable(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, _, err := s.Arrive(ctx, 0, task.Set{{Work: 4, Deadline: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Arrive(ctx, 2, task.Set{{Work: 2, Release: 2, Deadline: 8}}); err != nil {
		t.Fatal(err)
	}
	before := s.Committed()
	if len(before) == 0 {
		t.Fatal("nothing committed after second arrival")
	}
	if _, _, err := s.Arrive(ctx, 4, task.Set{{Work: 1, Release: 4, Deadline: 9}}); err != nil {
		t.Fatal(err)
	}
	after := s.Committed()
	for i, seg := range before {
		if after[i] != seg {
			t.Fatalf("committed prefix rewritten: %v became %v", seg, after[i])
		}
	}
	now := s.now
	for _, seg := range after {
		if seg.End > now+1e-9 {
			t.Errorf("committed segment %v beyond clock %g", seg, now)
		}
	}
	for _, seg := range s.Plan() {
		if seg.Start < now-1e-9 {
			t.Errorf("plan segment %v before clock %g", seg, now)
		}
	}
	if _, err := s.Finish(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestArriveEmptyBatch(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	adm, shed, err := s.Arrive(context.Background(), 0, nil)
	if adm != 0 || shed != 0 || err != nil {
		t.Fatalf("empty batch: %d %d %v", adm, shed, err)
	}
}

// The debounce timer must flush on its own, without an explicit Flush.
func TestDebounceTimerFires(t *testing.T) {
	cfg := testConfig()
	cfg.Debounce = 10 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Arrive(context.Background(), 0, task.Set{{Work: 1, Deadline: 10}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Replans == 0 {
		if time.Now().After(deadline) {
			t.Fatal("debounce timer never flushed")
		}
		time.Sleep(time.Millisecond)
	}
}

// panicJournal panics on its panicAt-th Append (1-based; 0 never).
type panicJournal struct {
	appends, panicAt int
	kind             RecordKind // the record it panicked on
}

func (j *panicJournal) Append(rec *Record) error {
	if j.appends++; j.appends == j.panicAt {
		j.kind = rec.Kind
		panic("journal: injected panic")
	}
	return nil
}

// within runs f in a goroutine and fails the test if it does not return
// within a bound, so a call that blocks on a wedged session fails the
// test instead of hanging the suite.
func within(t *testing.T, name string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked: the session mutex was left held", name)
	}
}

// A panic while the session mutex is held, here a journal's Append
// panicking inside Arrive (an arrival, commit, shed or replan record)
// or inside Finish (its last commit), closes the session and releases
// the mutex: every later call returns, the closed error where it has
// one, instead of blocking for good.
func TestPanicUnderLockClosesSession(t *testing.T) {
	ctx := context.Background()
	batches := func(s *Session, j *panicJournal, n int) (panicked bool) {
		rng := rand.New(rand.NewSource(3))
		tr, err := task.GenerateTrace(rng, task.ArrivalParams{
			Process: task.ArrivalPoisson, Batches: n, Rate: 0.25, BatchLo: 1, BatchHi: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tr {
			func() {
				defer func() { panicked = panicked || recover() != nil }()
				_, _, _ = s.Arrive(ctx, a.At, a.Tasks)
			}()
			if panicked {
				return true
			}
		}
		return false
	}
	// Count the records of a clean run first, to aim at the last ones.
	clean := &panicJournal{}
	cs := mustNew(t, Config{Cores: 2, Model: testModel(), SkipRatio: true, Journal: clean})
	batches(cs, clean, 12)
	beforeFinish := clean.appends
	cs.Close()

	for _, at := range []int{2, 3, 4, 5, 6, beforeFinish + 1} {
		j := &panicJournal{panicAt: at}
		s := mustNew(t, Config{Cores: 2, Model: testModel(), SkipRatio: true, Journal: j})
		panicked := batches(s, j, 12)
		if !panicked {
			func() {
				defer func() { panicked = recover() != nil }()
				_, _ = s.Finish(ctx)
			}()
		}
		if !panicked {
			t.Fatalf("append %d: no panic", at)
		}
		t.Logf("append %d panicked on a %s record", at, j.kind)
		within(t, "Snapshot", func() {
			if _, err := s.Snapshot(ctx); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("append %d (%s): Snapshot after the panic: %v, want ErrSessionClosed", at, j.kind, err)
			}
		})
		within(t, "Arrive", func() {
			if _, _, err := s.Arrive(ctx, 100, task.Set{{Release: 100, Work: 1, Deadline: 200}}); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("append %d (%s): Arrive after the panic: %v, want ErrSessionClosed", at, j.kind, err)
			}
		})
		within(t, "Finish", func() {
			if _, err := s.Finish(ctx); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("append %d (%s): Finish after the panic: %v, want ErrSessionClosed", at, j.kind, err)
			}
		})
		within(t, "Stats", func() {
			if !s.Stats().Closed {
				t.Errorf("append %d (%s): the session is not closed", at, j.kind)
			}
		})
		within(t, "Close", s.Close)
	}
}
