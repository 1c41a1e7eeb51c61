// Biglittle: the two extensions beyond the paper working together on an
// asymmetric mobile SoC. Four cores share the XScale dynamic curve but
// leak differently (two "big" leaky cores, two frugal "LITTLE" ones), and
// the frequency range is capped at the table maximum. The workload is
// dense enough that the plain pipeline would miss deadlines; the
// cap-aware scheduler guarantees none, and the leakage-aware assignment
// then places the busiest cores on the frugal silicon.
//
// Run with: go run ./examples/biglittle [-n 40] [-seed 7]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/easched"
)

func main() {
	n := flag.Int("n", 40, "number of jobs")
	seed := flag.Int64("seed", 7, "workload seed")
	flag.Parse()

	tab := easched.IntelXScale()
	fitted, err := easched.FitTable(tab)
	if err != nil {
		log.Fatal(err)
	}
	// Asymmetric leakage around the fitted static power: big cores leak
	// 1.6x the fitted value, LITTLE cores 0.4x.
	plat, err := easched.NewHeteroPlatform(fitted.Gamma, fitted.Alpha,
		1.6*fitted.P0, 1.6*fitted.P0, 0.4*fitted.P0, 0.4*fitted.P0)
	if err != nil {
		log.Fatal(err)
	}
	model := plat.UniformModel(plat.MeanStaticPower())

	// A dense workload (the fig11-stress regime).
	params := easched.XScaleWorkload(*n)
	params.ReleaseHi = 100
	params.IntensityLo = 0.5
	tasks, err := easched.GenerateTasks(rand.New(rand.NewSource(*seed)), params)
	if err != nil {
		log.Fatal(err)
	}

	// Plain pipeline: check whether it would exceed the frequency range.
	ctx := context.Background()
	plain, err := easched.Solve(ctx, easched.Spec{Tasks: tasks, Cores: 4, Model: model, Discrete: tab})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain DER schedule: peak frequency %.0f MHz (f_max %.0f), missed tasks: %d\n",
		plain.Schedule.PeakFrequency(), tab.MaxFrequency(), len(plain.Quantized.MissedTasks))

	// Cap-aware scheduling: guaranteed miss-free on feasible instances.
	rep, err := easched.Solve(ctx, easched.Spec{
		Tasks: tasks, Cores: 4, Model: model, Method: easched.MethodCapped, FrequencyCap: tab.MaxFrequency(),
	})
	if errors.Is(err, easched.ErrInfeasibleAtCap) {
		log.Fatal("this instance is infeasible at f_max — no scheduler could serve it")
	}
	if err != nil {
		log.Fatal(err)
	}
	capped := rep.Capped
	qCap := easched.Quantize(capped.Schedule, tab)
	fmt.Printf("cap-aware schedule:  peak frequency %.0f MHz, missed tasks: %d (fallback used: %v)\n\n",
		capped.Schedule.PeakFrequency(), len(qCap.MissedTasks), capped.UsedFallback)

	// Leakage-aware core assignment on the capped schedule.
	identity, err := plat.Energy(capped.Schedule, []int{0, 1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	perm, err := plat.AssignCores(capped.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	assigned, err := plat.Energy(capped.Schedule, perm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s %14s\n", "mapping", "energy (mW·s)")
	fmt.Printf("%-34s %14.0f\n", "naive (big cores first)", identity)
	fmt.Printf("%-34s %14.0f   (-%.1f%%)\n", "leakage-aware assignment", assigned,
		100*(identity-assigned)/identity)
	fmt.Printf("\nvirtual→physical mapping: %v (cores 0,1 leak 1.6x; 2,3 leak 0.4x)\n", perm)
	fmt.Println("\nper-core usage of the capped schedule:")
	fmt.Print(capped.Schedule.SummaryTable())
}
