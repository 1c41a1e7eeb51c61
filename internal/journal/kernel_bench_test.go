package journal

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/task"
)

// BenchmarkJournaledSession runs one streaming session per op: 200 or
// 800 Poisson arrival batches (rate 0.25, 1–3 tasks each, fixed seed)
// on 4 cores through dispatch, every batch re-planned as it arrives and
// journaled to a Store under the default options, then Finish. Besides
// the session's time it reports the journal's bytes and Append wall
// time per arrival and its checkpoints per session: compaction by bytes
// keeps the first two flat as the session grows, although each
// checkpoint carries the whole committed prefix.
func BenchmarkJournaledSession(b *testing.B) {
	for _, batches := range []int{200, 800} {
		b.Run(strconv.Itoa(batches), func(b *testing.B) {
			tr, err := task.GenerateTrace(rand.New(rand.NewSource(7)), task.ArrivalParams{
				Process: task.ArrivalPoisson, Batches: batches, Rate: 0.25, BatchLo: 1, BatchHi: 3,
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
			var total countingJournal
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := "s" + strconv.Itoa(i)
				w, err := st.Writer(id)
				if err != nil {
					b.Fatal(err)
				}
				j := &countingJournal{w: w}
				broken := false
				s, err := dispatch.New(dispatch.Config{Cores: 4, Model: testModel(), SkipRatio: true, Journal: j,
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
				total.bytes += j.bytes
				total.checkpoints += j.checkpoints
				total.elapsed += j.elapsed
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				if err := st.Remove(id); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			arrivals := float64(b.N * len(tr))
			b.ReportMetric(float64(total.bytes)/arrivals, "journal_B/arrival")
			b.ReportMetric(total.elapsed.Seconds()*1e6/arrivals, "journal_us/arrival")
			b.ReportMetric(float64(total.checkpoints)/float64(b.N), "checkpoints/session")
		})
	}
}
