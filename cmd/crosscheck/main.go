// Command crosscheck is a soak tester: it generates random instances and
// runs every scheduler in the repository against every independent
// oracle — the schedule validator, the discrete-event simulator, the
// max-flow feasibility analyzer, and the convex optimal solver — and
// reports any disagreement. Exit status is non-zero when anything fails,
// making it suitable as a CI job or an overnight soak.
//
// Usage:
//
//	crosscheck -n 200 -seed 1
//	crosscheck -n 50 -ntasks 30 -cores 6 -v
package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/check"
	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/online"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/yds"
)

var verbose bool

func main() {
	fs := cliflag.New("crosscheck")
	var (
		n     = fs.Int("n", 100, "number of random instances")
		seed  = fs.Int64("seed", 1, "base RNG seed")
		tasks = fs.Int("ntasks", 0, "tasks per instance (0 = random 5..25)")
		cores = fs.Int("cores", 0, "cores (0 = random 2..6)")
		vFlag = fs.Bool("v", false, "log each instance")
	)
	fs.Parse(os.Args[1:])
	verbose = *vFlag

	stream := stats.NewStream(*seed)
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
		ts, err := task.Generate(rng, task.PaperDefaults(nt))
		if err != nil {
			fail(&failures, i, "generate: %v", err)
			continue
		}
		if err := checkInstance(ts, m, pm); err != nil {
			fail(&failures, i, "n=%d m=%d %v: %v", nt, m, pm, err)
			continue
		}
		if verbose {
			fmt.Printf("ok %4d: n=%d m=%d %v\n", i, nt, m, pm)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "crosscheck: %d of %d instances FAILED\n", failures, *n)
		os.Exit(1)
	}
	fmt.Printf("crosscheck: %d instances passed against all oracles\n", *n)
}

func fail(count *int, i int, format string, args ...any) {
	*count++
	fmt.Fprintf(os.Stderr, "FAIL %4d: %s\n", i, fmt.Sprintf(format, args...))
}

// checkInstance runs every scheduler and oracle on one instance.
func checkInstance(ts task.Set, m int, pm power.Model) error {
	d, err := interval.Decompose(ts, 1e-9)
	if err != nil {
		return err
	}
	sol, err := opt.Solve(d, m, pm, opt.Options{MaxIterations: 2000, RelGap: 1e-5})
	if err != nil {
		return fmt.Errorf("opt: %w", err)
	}
	slack := sol.Gap + 1e-6*sol.Energy

	type entry struct {
		name   string
		sched  *schedule.Schedule
		energy float64
	}
	var entries []entry

	suite, err := core.RunSuite(ts, m, pm, core.Options{Tolerance: 1e-9})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	entries = append(entries,
		entry{"I1", suite.Even.Intermediate, suite.Even.IntermediateEnergy},
		entry{"F1", suite.Even.Final, suite.Even.FinalEnergy},
		entry{"I2", suite.DER.Intermediate, suite.DER.IntermediateEnergy},
		entry{"F2", suite.DER.Final, suite.DER.FinalEnergy},
	)

	psched, pe, err := partition.Schedule(ts, m, pm)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	entries = append(entries, entry{"partitioned", psched, pe})

	onl, err := online.ReplanDER(ts, m, pm)
	if err != nil {
		return fmt.Errorf("online: %w", err)
	}
	entries = append(entries, entry{"online", onl.Schedule, onl.Energy})

	optSched, err := opt.Realize(d, m, pm, sol)
	if err != nil {
		return fmt.Errorf("opt realize: %w", err)
	}
	entries = append(entries, entry{"optimal", optSched, sol.Energy})

	if m == 1 {
		ysched, _, err := yds.Schedule(ts)
		if err != nil {
			return fmt.Errorf("yds: %w", err)
		}
		entries = append(entries, entry{"yds", ysched, ysched.Energy(pm)})
	}

	for _, e := range entries {
		if errs := e.sched.Validate(1e-6, true); len(errs) > 0 {
			return fmt.Errorf("%s: validator: %v", e.name, errs[0])
		}
		copts := check.DefaultOptions()
		copts.ReportedEnergy = e.energy
		if res := check.Audit(e.sched, ts, m, pm, copts); len(res.Violations) > 0 {
			return fmt.Errorf("%s: universal validator: %v", e.name, res.Violations[0])
		}
		rep, err := sim.Run(e.sched, pm)
		if err != nil {
			return fmt.Errorf("%s: sim: %w", e.name, err)
		}
		if !rep.OK() {
			return fmt.Errorf("%s: sim violations: %v", e.name, rep.Violations[0])
		}
		if math.Abs(rep.Energy-e.energy) > 1e-5*math.Max(1, e.energy) {
			return fmt.Errorf("%s: sim energy %.6f != analytic %.6f", e.name, rep.Energy, e.energy)
		}
		if e.energy < sol.Energy-slack {
			return fmt.Errorf("%s: energy %.6f below certified optimum %.6f", e.name, e.energy, sol.Energy)
		}
	}
	return nil
}
