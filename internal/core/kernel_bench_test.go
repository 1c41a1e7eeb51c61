package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/task"
)

// BenchmarkRunners runs each registered Section V scheduler on a
// paper-default n=100 instance on 16 cores, unverified, as the served
// path calls it before its guardrail.
func BenchmarkRunners(b *testing.B) {
	ts, err := task.Generate(rand.New(rand.NewSource(1)), task.PaperDefaults(100))
	if err != nil {
		b.Fatal(err)
	}
	pm := power.Unit(3, 0.05)
	for _, name := range []string{"S^I1", "S^F1", "S^I2", "S^F2"} {
		e, ok := check.Lookup(name)
		if !ok {
			b.Fatalf("%s is not registered", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Run(context.Background(), ts, 16, pm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
