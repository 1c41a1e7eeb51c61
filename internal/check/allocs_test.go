package check_test

import (
	"testing"

	"repro/internal/check"
)

// TestAuditAllocs caps the guardrail's allocations on the schedule
// BenchmarkAuditDER100x16 audits. Every served solve and every session
// replan pays them, so the execution profile the audit derives must not
// grow them unnoticed. Skipped under -race, which adds its own.
func TestAuditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	final, ts, pm := finalDER100x16(t)
	const ceiling = 22
	got := testing.AllocsPerRun(10, func() {
		if vs := check.Validate(final, ts, 16, pm); len(vs) > 0 {
			t.Fatal(vs[0])
		}
	})
	if got > ceiling {
		t.Fatalf("check.Validate allocates %v times per call on S^F2 n=100 m=16, ceiling %d", got, ceiling)
	}
}
