package journal

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/task"
)

// BenchmarkJournaledSession runs one streaming session per op: 200
// Poisson arrival batches (rate 0.25, 1–3 tasks each, fixed seed) on 4
// cores through dispatch, every batch re-planned as it arrives and
// journaled to a Store under the default fsync policy, then Finish. Its
// journal cost is dominated by the checkpoints, each of which carries
// the session's whole committed prefix.
func BenchmarkJournaledSession(b *testing.B) {
	tr, err := task.GenerateTrace(rand.New(rand.NewSource(7)), task.ArrivalParams{
		Process: task.ArrivalPoisson, Batches: 200, Rate: 0.25, BatchLo: 1, BatchHi: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := "s" + strconv.Itoa(i)
		w, err := st.Writer(id)
		if err != nil {
			b.Fatal(err)
		}
		broken := false
		s, err := dispatch.New(dispatch.Config{Cores: 4, Model: testModel(), SkipRatio: true, Journal: w,
			Hooks: dispatch.Hooks{JournalError: func(error) { broken = true }}})
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range tr {
			if _, _, err := s.Arrive(ctx, a.At, a.Tasks); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Finish(ctx); err != nil {
			b.Fatal(err)
		}
		if broken {
			b.Fatal("journal broke")
		}
		s.Close()
		b.StopTimer()
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if err := st.Remove(id); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
