package repro

// FuzzSchedulers is the differential fuzzing oracle: arbitrary bytes are
// decoded (internal/fuzzenc) into a well-formed scheduling instance,
// every registered scheduler runs on it, and the ensemble is
// cross-checked against the independent oracles (universal validator,
// simulator, max-flow feasibility, convex optimum and its realized
// schedule, small-instance brute force). Any
// disagreement is a bug in one of the schedulers or one of the oracles.
//
// Run the seeds with plain `go test`; explore with
//
//	go test -fuzz=FuzzSchedulers -fuzztime=30s .
//
// The checked-in corpus lives in testdata/fuzz/FuzzSchedulers; violating
// instances found by cmd/conform are encoded through the same codec and
// appended there, so every conformance regression becomes a permanent
// fuzz seed.

import (
	"testing"

	"repro/internal/crosscheck"
	"repro/internal/fuzzenc"
	"repro/internal/opt"

	// Schedulers self-register with the cross-check on import.
	_ "repro/internal/core"
	_ "repro/internal/online"
	_ "repro/internal/partition"
	_ "repro/internal/yds"
)

func FuzzSchedulers(f *testing.F) {
	// Section V.D worked example (n=6, m=4, p = f³).
	f.Add([]byte("\x02\x03\x00\x00\x08\x00\x0a\x00\x02\x00\x0e\x00\x10\x00\x04\x00\x08\x00\x0c\x00" +
		"\x06\x00\x04\x00\x08\x00\x08\x00\x0a\x00\x0c\x00\x0c\x00\x06\x00\x0a\x00"))
	// Fig. 1 YDS instance on one core.
	f.Add([]byte("\x02\x00\x00\x00\x04\x00\x0c\x00\x02\x00\x02\x00\x08\x00\x04\x00\x04\x00\x04\x00"))
	// Single task on two cores.
	f.Add([]byte("\x02\x01\x00\x00\x08\x00\x0a\x00"))
	// n ≤ m: three lightly overlapped tasks on eight cores, p0 > 0.
	f.Add([]byte("\x06\x07\x00\x00\x04\x00\x10\x00\x01\x00\x06\x00\x0f\x00\x02\x00\x03\x00\x0c\x00"))
	// Static-power-heavy mix with fractional releases.
	f.Add([]byte("\x0a\x02\x00\x00\x08\x00\x0a\x00\x01\x80\x03\x00\x06\x80\x02\x00\x0e\x00\x10\x00" +
		"\x05\x00\x02\x00\x04\x00\x00\x40\x01\x00\x01\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, m, pm := fuzzenc.Decode(data)
		if ts == nil {
			return
		}
		rep, err := crosscheck.DifferentialOpts(ts, m, pm, crosscheck.DiffOptions{
			// The fuzz loop trades oracle sharpness for iteration count:
			// a looser solver gap widens every bound it certifies, and
			// brute force runs only on the smallest instances.
			Solver:        opt.Options{MaxIterations: 1500, RelGap: 1e-4},
			BruteMaxTasks: 4,
			Tol:           1e-5,
		})
		if err != nil {
			t.Fatalf("differential setup failed on valid instance %v: %v", ts, err)
		}
		if !rep.OK() {
			t.Fatalf("schedulers disagree on n=%d m=%d %v:\n%s", len(ts), m, pm, rep.Summary())
		}
	})
}
