package check_test

import (
	"testing"

	"repro/internal/check"
)

// TestAuditAllocs caps the guardrail's allocations on the schedule
// BenchmarkAuditDER100x16 audits: Validate's, which every library
// self-check and every session replan pays, and Audit's, which also
// derives the execution profile a served solve carries. Neither may grow
// unnoticed. Skipped under -race, which adds its own.
func TestAuditAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	final, ts, pm := finalDER100x16(t)
	for _, c := range []struct {
		name    string
		ceiling float64
		audit   func() []check.Violation
	}{
		{"Validate", 11, func() []check.Violation { return check.Validate(final, ts, 16, pm) }},
		{"Audit", 13, func() []check.Violation { return check.Audit(final, ts, 16, pm, check.DefaultOptions()).Violations }},
	} {
		got := testing.AllocsPerRun(10, func() {
			if vs := c.audit(); len(vs) > 0 {
				t.Fatal(vs[0])
			}
		})
		if got > c.ceiling {
			t.Errorf("check.%s allocates %v times per call on S^F2 n=100 m=16, ceiling %v", c.name, got, c.ceiling)
		}
	}
}
