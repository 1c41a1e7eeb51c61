package dispatch

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/task"
)

// TestConcurrentSessionsSoak hammers a manager with concurrent arrivals
// across many sessions while subscribers consume events, then drains.
// Its real assertions are the -race detector plus the invariants every
// final report must satisfy: no missed deadlines, no validator
// violations, committed energy accounted.
func TestConcurrentSessionsSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	const (
		sessions = 6
		writers  = 3 // concurrent arrival feeders per session
		batches  = 8 // arrival batches per feeder
	)
	m := NewManager(ManagerConfig{MaxSessions: sessions})
	defer m.Close()
	ctx := context.Background()

	var writersWG, subsWG sync.WaitGroup
	live := make([]*Session, sessions)
	for i := 0; i < sessions; i++ {
		cfg := testConfig()
		cfg.Debounce = time.Duration(i%3) * time.Millisecond // mix sync and debounced
		_, s, err := adoptNew(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		live[i] = s

		// One subscriber per session draining events until close.
		ch, _, err := s.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		subsWG.Add(1)
		go func() {
			defer subsWG.Done()
			for range ch {
			}
		}()

		for w := 0; w < writers; w++ {
			writersWG.Add(1)
			go func(s *Session, seed int64) {
				defer writersWG.Done()
				rng := rand.New(rand.NewSource(seed))
				for b := 0; b < batches; b++ {
					at := rng.Float64() * 50
					n := 1 + rng.Intn(3)
					batch := make(task.Set, n)
					for k := range batch {
						batch[k] = task.Task{
							ID:       k,
							Release:  at,
							Work:     0.5 + rng.Float64()*2,
							Deadline: at + 5 + rng.Float64()*20,
						}
					}
					switch _, _, err := s.Arrive(ctx, at, batch); {
					case err == nil:
					case errors.Is(err, ErrSessionClosed):
						// Lost the race against Finish/Drain: clean stop.
						return
					default:
						t.Errorf("Arrive: %v", err)
						return
					}
				}
			}(s, int64(i*100+w))
		}
	}

	writersWG.Wait()
	// Drain finishes every session to its horizon concurrently and
	// closes the event streams, releasing the subscribers.
	done := make(chan struct{})
	go func() { m.Drain(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("drain timed out")
	}
	subsWG.Wait()

	for i, s := range live {
		f := s.Final()
		if f == nil {
			t.Errorf("session %d: no final report", i)
			continue
		}
		if len(f.Missed) != 0 {
			t.Errorf("session %d missed deadlines: %v", i, f.Missed)
		}
		if len(f.Violations) != 0 {
			t.Errorf("session %d violations: %v", i, f.Violations)
		}
		if f.Completed+f.Shed == 0 && len(f.Tasks) > 0 {
			t.Errorf("session %d: tasks unaccounted: %+v", i, f)
		}
	}
}
