package dispatch

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/schedule"
	"repro/internal/task"
)

// restoreEvery is how many timed arrivals a benchmark session takes
// before it is restored at its age again.
const restoreEvery = 100

// BenchmarkSessionArriveFlush admits one task per unit of virtual time
// into a 2-core session that has already seen age tasks through, and
// re-plans it synchronously: the commit, the residual ReplanDER solve
// with its in-band audit, and the plan install that every arrival pays.
// Every restoreEvery arrivals the session is restored from its aged
// snapshot with the timer stopped, so the age, and with it ns/op, is the
// same at every -benchtime. Restore copies the task table and the
// committed prefix at their exact sizes, where a live session of that
// age has room to append into, so the benchmark makes that room, and
// the first arrival after a restore, which has no plan to commit yet,
// is untimed.
func BenchmarkSessionArriveFlush(b *testing.B) {
	for _, age := range []int{1000, 50000} {
		b.Run(fmt.Sprintf("age=%d", age), func(b *testing.B) {
			aged := agedSnapshot(age)
			ctx := context.Background()
			var s *Session
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%restoreEvery == 0 {
					b.StopTimer()
					if s != nil {
						s.Close()
					}
					var err error
					if s, err = Restore(ctx, aged, testConfig()); err != nil {
						b.Fatal(err)
					}
					s.tasks = slices.Grow(s.tasks, restoreEvery+1)
					s.committed = slices.Grow(s.committed, 4*restoreEvery)
					arrive(b, s, age)
					b.StartTimer()
				}
				arrive(b, s, age+1+i%restoreEvery)
			}
			b.StopTimer()
			s.Close()
		})
	}
}

// arrive admits one task at virtual time at.
func arrive(b *testing.B, s *Session, at int) {
	t := float64(at)
	if _, _, err := s.Arrive(context.Background(), t, task.Set{{Work: 0.5, Release: t, Deadline: t + 2}}); err != nil {
		b.Fatal(err)
	}
}

// agedSnapshot is a session at virtual time age that has completed age
// tasks, one admitted per unit of time, each in one committed segment.
func agedSnapshot(age int) *Snapshot {
	pm := testModel()
	snap := &Snapshot{
		Algorithm: DefaultAlgorithm, Cores: 2, Model: pm, Now: float64(age),
		Replans: age, Commits: age, Seq: 3 * int64(age),
		Tasks:     make([]TaskState, age),
		Committed: make([]schedule.Segment, age),
	}
	for i := range snap.Tasks {
		at := float64(i)
		snap.Tasks[i] = TaskState{Release: at, Work: 0.5, Deadline: at + 2, ArrivedAt: at, Done: true, CompletedAt: at + 0.5}
		snap.Committed[i] = schedule.Segment{Task: i, Start: at, End: at + 0.5, Frequency: 1}
		snap.Realized += pm.EnergyForTime(0.5, 1)
	}
	return snap
}
