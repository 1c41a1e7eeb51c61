package dispatch

import (
	"context"
	"testing"

	"repro/internal/task"
)

// BenchmarkSessionArriveFlush admits one task per unit of virtual time
// into a 2-core session and re-plans it synchronously: the commit, the
// residual ReplanDER solve with its in-band audit, and the plan install
// that every arrival pays.
func BenchmarkSessionArriveFlush(b *testing.B) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := float64(i)
		_, _, err := s.Arrive(ctx, at, task.Set{{Work: 0.5, Release: at, Deadline: at + 2}})
		if err != nil {
			b.Fatal(err)
		}
	}
}
