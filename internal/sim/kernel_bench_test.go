package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/task"
)

// BenchmarkSimDER100x16 replays the final DER schedule of a paper-default
// n=100 instance on 16 cores through the event simulator.
func BenchmarkSimDER100x16(b *testing.B) {
	ts, err := task.Generate(rand.New(rand.NewSource(1)), task.PaperDefaults(100))
	if err != nil {
		b.Fatal(err)
	}
	pm := power.Unit(3, 0.05)
	res := core.MustSchedule(ts, 16, pm, alloc.DER, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.Run(res.Final, pm)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatal(rep.Violations[0])
		}
	}
}
