package check_test

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/task"
)

// BenchmarkAuditDER100x16 audits the final DER schedule of a paper-default
// n=100 instance on 16 cores: the guardrail every served S^F2 solve runs.
func BenchmarkAuditDER100x16(b *testing.B) {
	ts, err := task.Generate(rand.New(rand.NewSource(1)), task.PaperDefaults(100))
	if err != nil {
		b.Fatal(err)
	}
	pm := power.Unit(3, 0.05)
	res := core.MustSchedule(ts, 16, pm, alloc.DER, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := check.Validate(res.Final, ts, 16, pm); len(vs) > 0 {
			b.Fatal(vs[0])
		}
	}
}
