package easched

import (
	"context"
	"testing"
)

func TestSessionPublicAPI(t *testing.T) {
	ctx := context.Background()
	s, err := NewSession(SessionConfig{Cores: 2, Model: NewModel(3, 0.05)})
	if err != nil {
		t.Fatal(err)
	}
	events, cancel, err := s.Events()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	if _, _, err := s.Arrive(ctx, 0, MustTasks(T(0, 2, 6), T(0, 1, 4))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Arrive(ctx, 3, MustTasks(T(3, 2, 10))); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Tasks != 3 || st.Replans == 0 {
		t.Fatalf("stats after arrivals: %+v", st)
	}

	f, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.Completed != 3 || len(f.Missed) != 0 || len(f.Violations) != 0 {
		t.Fatalf("final report: %+v", f)
	}
	if f.CompetitiveRatio < 1-1e-9 {
		t.Fatalf("competitive ratio %g < 1", f.CompetitiveRatio)
	}
	if len(s.Committed()) == 0 {
		t.Fatal("no committed segments after Finish")
	}
	s.Close()

	// The stream replays history and closes; the final event arrives.
	var sawFinal bool
	for ev := range events {
		if ev.Type == EventFinal {
			sawFinal = true
		}
	}
	if !sawFinal {
		t.Fatal("no final event on stream")
	}
	if s.Final() == nil {
		t.Fatal("Final() nil after Finish")
	}
}

func TestSessionSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	s, err := NewSession(SessionConfig{Cores: 2, Model: NewModel(3, 0.05), SkipRatio: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Arrive(ctx, 0, MustTasks(T(0, 2, 8))); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSession(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Arrive(ctx, 4, MustTasks(T(4, 1, 9))); err != nil {
		t.Fatal(err)
	}
	f, err := r.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.Completed != 2 || len(f.Missed) != 0 {
		t.Fatalf("restored session final: %+v", f)
	}
}

// The session shares its committed prefix with its own reads, but every
// slice the public API returns is the caller's: writing to one changes
// no later read.
func TestSessionReadsAreOwned(t *testing.T) {
	ctx := context.Background()
	s, err := NewSession(SessionConfig{Cores: 2, Model: NewModel(3, 0.05), SkipRatio: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Arrive(ctx, 0, MustTasks(T(0, 2, 8), T(0, 1, 4))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Arrive(ctx, 3, MustTasks(T(3, 2, 10))); err != nil {
		t.Fatal(err)
	}
	want := s.Committed()
	if len(want) == 0 {
		t.Fatal("nothing committed")
	}
	snap, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.Committed()[0].Frequency = 99
	snap.Committed[0].Frequency = 99
	if got := s.Committed(); got[0] != want[0] {
		t.Fatalf("a write to a returned prefix changed the session's: %v, want %v", got[0], want[0])
	}
	f, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// No task was shed, so the session's report shares its prefix.
	want = s.Committed()
	if len(f.Schedule.Segments) != len(want) {
		t.Fatalf("final schedule has %d segments, the prefix %d", len(f.Schedule.Segments), len(want))
	}
	f.Schedule.Segments[0].Frequency = 99
	s.Final().Schedule.Segments[0].Frequency = 99
	if got := s.Committed(); got[0] != want[0] {
		t.Fatalf("a write to a final schedule changed the prefix: %v, want %v", got[0], want[0])
	}
	if got := s.Final().Schedule.Segments[0]; got != want[0] {
		t.Fatalf("a write to a final schedule changed the report: %v, want %v", got, want[0])
	}
}
