package check_test

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// finalDER100x16 is the final DER schedule of a paper-default n=100
// instance on 16 cores: what every served S^F2 solve hands the guardrail.
func finalDER100x16(tb testing.TB) (*schedule.Schedule, task.Set, power.Model) {
	ts, err := task.Generate(rand.New(rand.NewSource(1)), task.PaperDefaults(100))
	if err != nil {
		tb.Fatal(err)
	}
	pm := power.Unit(3, 0.05)
	return core.MustSchedule(ts, 16, pm, alloc.DER, core.Options{}).Final, ts, pm
}

// BenchmarkAuditDER100x16 audits the final DER schedule of a paper-default
// n=100 instance on 16 cores: the guardrail every served S^F2 solve runs.
func BenchmarkAuditDER100x16(b *testing.B) {
	final, ts, pm := finalDER100x16(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := check.Validate(final, ts, 16, pm); len(vs) > 0 {
			b.Fatal(vs[0])
		}
	}
}
