package check_test

import (
	"math/rand"
	"sort"
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

// sink keeps the benchmarked calls' results live.
var sink []check.Violation

// BenchmarkAuditAdversarial audits schedules laid out against the
// boundary pass: the n=100, m=16 DER schedule listed in decreasing start
// order, which sends every Start's rank search the wrong way from its
// hint, and 2 000 segments whose starts, or whose ends, are packed 1 000
// to one ε = Tol·1e-3 window.
func BenchmarkAuditAdversarial(b *testing.B) {
	final, ts, pm := finalDER100x16(b)
	reversed := schedule.New(ts, 16)
	reversed.Segments = append([]schedule.Segment(nil), final.Segments...)
	sort.SliceStable(reversed.Segments, func(i, j int) bool {
		return reversed.Segments[i].Start > reversed.Segments[j].Start
	})

	const count = 1000
	wide := make([][3]float64, 100)
	for i := range wide {
		wide[i] = [3]float64{0, 1, 10}
	}
	packedTasks := task.MustNew(wide...)
	packed := schedule.New(packedTasks, 16)
	step := check.DefaultOptions().Tol * 1e-3 / (2 * count)
	for k := 0; k < count; k++ {
		packed.Segments = append(packed.Segments,
			schedule.Segment{Task: k % 100, Core: k % 16, Start: 1 + float64(k)*step, End: 2 + float64(k%40)/40, Frequency: 0.5},
			schedule.Segment{Task: k % 100, Core: (k + 1) % 16, Start: 3 + float64(k%40)/40, End: 5 + float64(k)*step, Frequency: 2})
	}

	for _, c := range []struct {
		name string
		s    *schedule.Schedule
		ts   task.Set
	}{{"reversed", reversed, ts}, {"packed", packed, packedTasks}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = check.Validate(c.s, c.ts, 16, pm)
			}
		})
	}
}
