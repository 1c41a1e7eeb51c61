// Governors: what deadline-aware DVFS planning buys over the reactive
// frequency governors operating systems actually ship. On an Intel
// XScale quad-core, the same job batch is executed by (a) the paper's
// DER-based schedule quantized to the real operating points, and (b)
// cpufreq-style performance / ondemand / conservative governors driving
// global EDF. Energy uses the measured table powers for all of them.
//
// Run with: go run ./examples/governors [-n 20] [-seed 5] [-period 5]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/easched"
)

func main() {
	n := flag.Int("n", 20, "number of jobs")
	seed := flag.Int64("seed", 5, "workload seed")
	period := flag.Float64("period", 5, "governor sampling period (seconds)")
	flag.Parse()

	tab := easched.IntelXScale()
	model, err := easched.FitTable(tab)
	if err != nil {
		log.Fatal(err)
	}
	tasks, err := easched.GenerateTasks(rand.New(rand.NewSource(*seed)), easched.XScaleWorkload(*n))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d jobs on a quad-core XScale; governor period %.0fs\n\n", *n, *period)

	type row struct {
		name   string
		energy float64
		misses int
	}
	var rows []row

	// The paper's pipeline, quantized to the real frequency grid.
	plan, err := easched.Solve(context.Background(), easched.Spec{Tasks: tasks, Cores: 4, Model: model, Discrete: tab})
	if err != nil {
		log.Fatal(err)
	}
	q := plan.Quantized
	rows = append(rows, row{"DER schedule (paper, quantized)", q.Energy, len(q.MissedTasks)})
	split := easched.QuantizeSplit(plan.Schedule, tab)
	rows = append(rows, row{"DER schedule + two-level split", split.Energy, len(split.MissedTasks)})

	for _, g := range []struct {
		name   string
		policy easched.GovernorPolicy
	}{
		{"performance governor", easched.GovernorPerformance},
		{"ondemand governor", easched.GovernorOndemand},
		{"conservative governor", easched.GovernorConservative},
	} {
		res, err := easched.RunGovernor(tasks, 4, tab, g.policy, *period)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{g.name, res.Energy, len(res.MissedTasks)})
	}

	fmt.Printf("%-34s %14s %8s\n", "policy", "energy (mW·s)", "misses")
	base := rows[0].energy
	for _, r := range rows {
		fmt.Printf("%-34s %14.0f %8d   (%+.1f%%)\n", r.name, r.energy, r.misses,
			100*(r.energy-base)/base)
	}
	fmt.Println("\nGovernors are deadline-oblivious: the reactive ones ramp up too late")
	fmt.Println("for tight jobs (misses), while pinning the top frequency wastes energy.")
	fmt.Println("The paper's planner knows the deadlines and spends exactly enough.")
}
