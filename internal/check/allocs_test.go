package check_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/check"
)

// TestAuditAllocs caps the guardrail's allocations, in count and in
// bytes, on the schedule BenchmarkAuditDER100x16 audits: Validate's,
// which every library self-check and every session replan pays, and
// Audit's, which also derives the execution profile a served solve
// carries. Neither may grow unnoticed. The audit's scratch is pooled, so
// only the Result, its Work map and the profile's slices remain. While
// the test measures, the collector is off and one P runs Go code: a
// collection empties the pool, and a goroutine that moves to another P
// misses the scratch its last audit put back. Skipped under -race,
// which adds its own allocations.
func TestAuditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	final, ts, pm := finalDER100x16(t)
	for _, c := range []struct {
		name           string
		ceiling, bytes float64
		audit          func() []check.Violation
	}{
		{"Validate", 5, 3072, func() []check.Violation { return check.Validate(final, ts, 16, pm) }},
		{"Audit", 6, 3584, func() []check.Violation { return check.Audit(final, ts, 16, pm, check.DefaultOptions()).Violations }},
	} {
		run := func() {
			if vs := c.audit(); len(vs) > 0 {
				t.Fatal(vs[0])
			}
		}
		got := testing.AllocsPerRun(10, run)
		if got > c.ceiling {
			t.Errorf("check.%s allocates %v times per call on S^F2 n=100 m=16, ceiling %v", c.name, got, c.ceiling)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / runs; b > c.bytes {
			t.Errorf("check.%s allocates %.0f bytes per call on S^F2 n=100 m=16, ceiling %.0f", c.name, b, c.bytes)
		}
	}
}
