package online

import (
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/task"
)

// BenchmarkReplanDER replays a paper-default n=15 instance on 4 cores
// through the event-driven replanner: one S^F2 solve per distinct
// release, then the audit of the realized schedule.
func BenchmarkReplanDER(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ts := task.MustGenerate(rng, task.PaperDefaults(15))
	pm := power.Unit(3, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplanDER(ts, 4, pm); err != nil {
			b.Fatal(err)
		}
	}
}
