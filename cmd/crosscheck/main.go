// Command crosscheck is a soak tester: it generates random instances and
// runs every registered scheduler against every independent oracle of
// the differential harness (internal/crosscheck) — the universal
// validator, the discrete-event simulator, the max-flow feasibility
// analyzer, the convex optimal solver and its realized schedule, and the
// small-instance brute force — and reports any disagreement. Exit status
// is non-zero when anything fails, making it suitable as a CI job or an
// overnight soak.
//
// Usage:
//
//	crosscheck -n 200 -seed 1
//	crosscheck -n 50 -ntasks 30 -cores 6 -v
package main

import (
	"fmt"
	"os"

	"repro/internal/cliflag"
	"repro/internal/crosscheck"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/task"

	// Every scheduler self-registers on import; the harness runs
	// whatever is registered.
	_ "repro/internal/core"
	_ "repro/internal/fallback"
	_ "repro/internal/online"
	_ "repro/internal/partition"
	_ "repro/internal/yds"
)

func main() {
	fs := cliflag.New("crosscheck")
	var (
		n       = fs.Int("n", 100, "number of random instances")
		seed    = fs.Int64("seed", 1, "base RNG seed")
		tasks   = fs.Int("ntasks", 0, "tasks per instance (0 = random 5..25)")
		cores   = fs.Int("cores", 0, "cores (0 = random 2..6)")
		verbose = fs.Bool("v", false, "log each instance")
	)
	fs.Parse(os.Args[1:])

	stream := stats.NewStream(*seed)
	opts := crosscheck.DiffOptions{Solver: opt.Options{MaxIterations: 2000, RelGap: 1e-5}}
	failures := 0
	for i := 0; i < *n; i++ {
		rng := stream.Rand(0, 0, i)
		nt := *tasks
		if nt == 0 {
			nt = 5 + rng.Intn(21)
		}
		m := *cores
		if m == 0 {
			m = 2 + rng.Intn(5)
		}
		pm := power.Unit(2+rng.Float64(), rng.Float64()*0.3)
		var rep *crosscheck.DiffReport
		ts, err := task.Generate(rng, task.PaperDefaults(nt))
		if err == nil {
			rep, err = crosscheck.DifferentialOpts(ts, m, pm, opts)
		}
		switch {
		case err != nil:
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %4d: n=%d m=%d %v: %v\n", i, nt, m, pm, err)
		case !rep.OK():
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %4d: n=%d m=%d %v: %s\n", i, nt, m, pm, rep.Summary())
		case *verbose:
			fmt.Printf("ok %4d: n=%d m=%d %v: %s\n", i, nt, m, pm, rep.Summary())
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "crosscheck: %d of %d instances FAILED\n", failures, *n)
		os.Exit(1)
	}
	fmt.Printf("crosscheck: %d instances passed against all oracles\n", *n)
}
