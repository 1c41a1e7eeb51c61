// Command energysim regenerates the paper's evaluation: every table and
// figure of Li & Wu, "Energy-Aware Scheduling for Aperiodic Tasks on
// Multi-core Processors" (ICPP 2014), plus the ablations documented in
// DESIGN.md.
//
// Usage:
//
//	energysim -list
//	energysim -exp fig6 [-reps 100] [-seed 20140901] [-workers 8]
//	energysim -all [-reps 25]
//	energysim -exp fig11 -quick
//	energysim -custom sweep.json -reps 50
//
// Output is an aligned text table per experiment: one row per sweep
// point, one column per approach (NEC means), with miss-rate columns for
// the practical-processor experiments.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cliflag"
	"repro/internal/experiments"
	"repro/internal/opt"
	"repro/internal/plot"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	fs := cliflag.New("energysim")
	def := experiments.Defaults()
	var (
		list    = fs.Bool("list", false, "list available experiments and exit")
		exp     = fs.String("exp", "", "experiment ID to run (see -list)")
		all     = fs.Bool("all", false, "run every registered experiment")
		reps    = fs.Int("reps", def.Replications, "replications per sweep point")
		seed    = fs.Int64("seed", def.Seed, "base RNG seed")
		workers = fs.Int("workers", def.Workers, "parallel replications (0 = GOMAXPROCS)")
		quick   = fs.Bool("quick", false, "fast mode: 10 replications, looser optimal solver")
		optIter = fs.Int("opt-iters", def.Opt.MaxIterations, "Frank-Wolfe iteration cap for the optimal solver")
		optGap  = fs.Float64("opt-gap", def.Opt.RelGap, "relative duality-gap target for the optimal solver")
		doPlot  = fs.Bool("plot", false, "render an ASCII line chart under each table")
		csvDir  = fs.String("csv", "", "directory to write per-experiment CSV files into")
		mdFile  = fs.String("md", "", "append a Markdown section per experiment to this file")
		custom  = fs.String("custom", "", "run a custom sweep from a JSON config file (see experiments.CustomSweep)")
	)
	fs.Parse(os.Args[1:])

	if *list {
		for _, d := range experiments.All() {
			fmt.Printf("%-20s %s\n", d.ID, d.Title)
		}
		return
	}

	// Ctrl-C (or SIGTERM) cancels the sweep: replication pools stop
	// launching work, in-flight replications drain, and we exit 130
	// instead of running the remaining replications to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := experiments.Config{
		Replications: *reps,
		Seed:         *seed,
		Workers:      *workers,
		Opt:          opt.Options{MaxIterations: *optIter, RelGap: *optGap},
	}
	if *quick {
		cfg = experiments.Quick()
		cfg.Seed = *seed
	}
	cfg.Context = ctx

	opts := outputOptions{plot: *doPlot, csvDir: *csvDir, mdFile: *mdFile}
	switch {
	case *custom != "":
		f, err := os.Open(*custom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "energysim: %v\n", err)
			os.Exit(2)
		}
		sweep, err := experiments.ReadCustomSweep(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "energysim: %v\n", err)
			os.Exit(2)
		}
		d := experiments.Descriptor{
			ID:    sweep.Name,
			Title: "custom sweep",
			Run:   func(cfg experiments.Config) (*experiments.Result, error) { return experiments.RunCustom(cfg, sweep) },
		}
		exitOnErr(d.ID, runOne(d, cfg, opts))
	case *all:
		for _, d := range experiments.All() {
			exitOnErr(d.ID, runOne(d, cfg, opts))
		}
	case *exp != "":
		d, err := experiments.Lookup(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "energysim: %v\n", err)
			os.Exit(2)
		}
		exitOnErr(d.ID, runOne(d, cfg, opts))
	default:
		fs.Usage()
		os.Exit(2)
	}
}

// exitOnErr reports a failed experiment and exits: 130 for an interrupt
// (so shells see the conventional SIGINT status), 1 otherwise.
func exitOnErr(id string, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "energysim: interrupted")
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "energysim: %s: %v\n", id, err)
	os.Exit(1)
}

type outputOptions struct {
	plot   bool
	csvDir string
	mdFile string
}

func runOne(d experiments.Descriptor, cfg experiments.Config, opts outputOptions) error {
	start := time.Now()
	res, err := d.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	if opts.plot {
		fmt.Print(plot.Render(res, plot.Options{}))
	}
	if opts.csvDir != "" {
		if err := writeCSV(opts.csvDir, res); err != nil {
			return err
		}
	}
	if opts.mdFile != "" {
		f, err := os.OpenFile(opts.mdFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, err = f.WriteString(report.Markdown(res))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("# appended markdown to %s\n", opts.mdFile)
	}
	fmt.Printf("# elapsed: %v\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func writeCSV(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, res.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteCSV(f, res); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	return nil
}
