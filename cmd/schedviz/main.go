// Command schedviz renders the paper's scheduling algorithms on a task
// set as ASCII Gantt charts: the final schedules of both allocation
// methods, their energies, the convex optimum for reference, and the
// discrete-event simulator's verdict.
//
// Usage:
//
//	schedviz                         # the paper's Section V.D example
//	schedviz -example fig1           # the introductory YDS example
//	schedviz -tasks workload.json -cores 4 -alpha 3 -p0 0.05
//	schedviz -width 100
//
// Task files are JSON arrays of {"release": r, "work": c, "deadline": d}
// (see cmd/taskgen).
package main

import (
	"context"
	"fmt"
	"os"

	"repro/easched"
	"repro/internal/cliflag"
	"repro/internal/interval"
	"repro/internal/task"
	"repro/internal/trace"
)

func main() {
	fs := cliflag.New("schedviz")
	var (
		file    = fs.String("tasks", "", "JSON task file (default: built-in example)")
		example = fs.String("example", "sectionVD", "built-in example: sectionVD or fig1")
		cores   = fs.Int("cores", 4, "number of cores")
		alpha   = fs.Float64("alpha", 3, "dynamic power exponent α")
		p0      = fs.Float64("p0", 0, "static power p0")
		width   = fs.Int("width", 72, "Gantt chart width in columns")
		traceF  = fs.String("trace", "", "write the DER final schedule as a Chrome trace to this file")
		csvF    = fs.String("segcsv", "", "write the DER final schedule's segments as CSV to this file")
	)
	fs.Parse(os.Args[1:])

	ts, err := loadTasks(*file, *example)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedviz: %v\n", err)
		os.Exit(1)
	}
	model := easched.NewModel(*alpha, *p0)

	fmt.Printf("workload: %d tasks, model %v, %d cores\n\n", len(ts), model, *cores)
	for _, tk := range ts {
		fmt.Printf("  %v  intensity %.3f\n", tk, tk.Intensity())
	}
	if d, err := interval.Decompose(ts, 1e-9); err == nil {
		peak, at := d.PeakLoad()
		fmt.Printf("\n%d subintervals; %.3g of %.3g time units heavily overlapped on %d cores\n",
			d.NumSubs(), d.TimeAboveCores(*cores), d.TotalLength(), *cores)
		fmt.Printf("peak aggregate intensity %.3f in [%g, %g]\n",
			peak, d.Subs[at].Start, d.Subs[at].End)
	}
	fmt.Println()

	ctx := context.Background()
	evenRep, err := easched.Solve(ctx, easched.Spec{Tasks: ts, Cores: *cores, Model: model, Method: easched.MethodEven})
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedviz: %v\n", err)
		os.Exit(1)
	}
	derRep, err := easched.Solve(ctx, easched.Spec{Tasks: ts, Cores: *cores, Model: model, Compare: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedviz: %v\n", err)
		os.Exit(1)
	}
	even, der, sol := evenRep.Plan, derRep.Plan, derRep.Optimal

	fmt.Printf("evenly allocating method: E^F1 = %.4f (intermediate %.4f)\n",
		even.FinalEnergy, even.IntermediateEnergy)
	fmt.Print(even.Final.Gantt(*width))
	fmt.Println()
	fmt.Printf("DER-based method:         E^F2 = %.4f (intermediate %.4f)\n",
		der.FinalEnergy, der.IntermediateEnergy)
	fmt.Print(der.Final.Gantt(*width))
	fmt.Println()
	fmt.Printf("convex optimum:           E^opt = %.4f (gap %.2g, %d iterations)\n",
		sol.Energy, sol.Gap, sol.Iterations)
	fmt.Printf("NEC: F1 = %.4f, F2 = %.4f\n\n", even.FinalEnergy/sol.Energy, der.FinalEnergy/sol.Energy)

	rep, err := easched.Simulate(der.Final, model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedviz: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("simulator: energy %.4f, %d preemptions, %d migrations, violations: %d\n",
		rep.Energy, rep.Preemptions, rep.Migrations, len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Printf("  ! %s\n", v)
	}

	if *traceF != "" {
		if err := writeFile(*traceF, func(w *os.File) error {
			return trace.WriteChrome(w, der.Final, 1e6)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "schedviz: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing)\n", *traceF)
	}
	if *csvF != "" {
		if err := writeFile(*csvF, func(w *os.File) error {
			return trace.WriteScheduleCSV(w, der.Final)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "schedviz: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote segment CSV to %s\n", *csvF)
	}
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fill(f)
}

func loadTasks(file, example string) (easched.TaskSet, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return task.Read(f)
	}
	switch example {
	case "sectionVD":
		return task.SectionVDExample(), nil
	case "fig1":
		return task.Fig1Example(), nil
	default:
		return nil, fmt.Errorf("unknown example %q (sectionVD, fig1)", example)
	}
}
