// XScale: the paper's practical-processor scenario (Section VI.C). An
// embedded quad-core with Intel XScale operating points receives a batch
// of aperiodic jobs; we fit the continuous power model to the measured
// table, schedule with both heuristics, quantize the frequencies onto the
// real operating points, and report energy and deadline misses.
//
// Run with: go run ./examples/xscale [-n 20] [-seed 3] [-lo 0.3]
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
	seed := flag.Int64("seed", 3, "workload seed")
	lo := flag.Float64("lo", 0.1, "lower bound of the intensity range")
	flag.Parse()

	// The measured frequency/power table of the Intel XScale (Table III):
	// 150..1000 MHz, 80..1600 mW.
	tab := easched.IntelXScale()
	fmt.Println("operating points:")
	for _, l := range tab.Levels() {
		fmt.Printf("  %6.0f MHz  %6.0f mW\n", l.Frequency, l.Power)
	}

	// Fit p(f) = γ·f^α + p0 (the paper reports 3.855e-6·f^2.867 + 63.58).
	model, err := easched.FitTable(tab)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfitted continuous model: %v\n\n", model)

	// Jobs: C ∈ [4000, 8000] Mcycles, releases over 200 s, deadlines set
	// so the required frequency lands within the usable band.
	params := easched.XScaleWorkload(*n)
	params.IntensityLo = *lo
	tasks, err := easched.GenerateTasks(rand.New(rand.NewSource(*seed)), params)
	if err != nil {
		log.Fatal(err)
	}

	// Both heuristics, each quantized onto the real operating points
	// (Discrete); the DER run also solves for the optimum (Compare).
	ctx := context.Background()
	even, err := easched.Solve(ctx, easched.Spec{
		Tasks: tasks, Cores: 4, Model: model, Method: easched.MethodEven, Discrete: tab,
	})
	if err != nil {
		log.Fatal(err)
	}
	der, err := easched.Solve(ctx, easched.Spec{Tasks: tasks, Cores: 4, Model: model, Discrete: tab, Compare: true})
	if err != nil {
		log.Fatal(err)
	}
	qEven, qDer, sol := even.Quantized, der.Quantized, der.Optimal

	fmt.Printf("%-28s %14s %14s %8s\n", "schedule", "E continuous", "E quantized", "misses")
	fmt.Printf("%-28s %14.1f %14.1f %8d\n", "evenly allocating (F1)",
		even.Energy, qEven.Energy, len(qEven.MissedTasks))
	fmt.Printf("%-28s %14.1f %14.1f %8d\n", "DER-based (F2)",
		der.Energy, qDer.Energy, len(qDer.MissedTasks))
	fmt.Printf("%-28s %14.1f %14s %8s\n", "convex optimum", sol.Energy, "—", "—")

	fmt.Printf("\nquantized NEC: F1 = %.4f, F2 = %.4f\n",
		qEven.Energy/sol.Energy, qDer.Energy/sol.Energy)
	if qDer.Missed {
		fmt.Printf("DER schedule missed tasks: %v\n", qDer.MissedTasks)
	} else {
		fmt.Println("DER schedule meets every deadline on the real frequency grid.")
	}
}
