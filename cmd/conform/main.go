// Command conform runs the metamorphic conformance matrix: every
// registered scheduler × every generator regime × every metamorphic
// relation, with gap-aware predicates on the convex optimum. It emits a
// JSON conformance report (relation statistics, E/E^opt ratio statistics
// per scheduler for comparison against the paper's Section VI, and every
// violation with a minimized reproducer), and feeds violating instances
// back into the native fuzz corpus so each regression becomes a permanent
// `go test` seed. Exit status is non-zero when any relation is violated,
// making it suitable as a nightly CI soak.
//
// Usage:
//
//	conform -instances 10000 -seed 1 -o report.json
//	conform -smoke                         # small PR-time matrix
//	conform -regimes bursty,harmonic -relations time-shift,add-core
//	conform -corpus testdata/fuzz/FuzzSchedulers
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/easched"
	"repro/internal/cliflag"
	"repro/internal/fuzzenc"
	"repro/internal/metamorphic"
	"repro/internal/task"

	// Schedulers self-register with the cross-check registry on import;
	// the matrix audits whatever is registered.
	_ "repro/internal/core"
	_ "repro/internal/fallback"
	_ "repro/internal/online"
	_ "repro/internal/partition"
	_ "repro/internal/yds"
)

func main() {
	fs := cliflag.New("conform")
	var (
		instances  = fs.Int("instances", 10000, "instances across the matrix (nightly bar is >= 10000)")
		seed       = fs.Int64("seed", 1, "base RNG seed; instance k replays from seed+k")
		maxTasks   = fs.Int("max-tasks", 0, "max tasks per instance (0 = suite default)")
		maxCores   = fs.Int("cores", 0, "max cores per instance (0 = suite default)")
		regimes    = fs.String("regimes", "", "comma-separated generator regimes (empty = all)")
		relations  = fs.String("relations", "", "comma-separated relation names (empty = all)")
		schedulers = fs.String("schedulers", "", "comma-separated scheduler names (empty = all registered)")
		out        = fs.String("o", "", "write the JSON conformance report to this file")
		corpus     = fs.String("corpus", "", "write violating instances into this fuzz corpus directory")
		minimize   = fs.Bool("minimize", true, "shrink violating instances to minimal reproducers")
		smoke      = fs.Bool("smoke", false, "small PR-time matrix (overrides -instances/-max-tasks)")
		listRels   = fs.Bool("list", false, "list relations with their justifications and exit")
		verbose    = fs.Bool("v", false, "progress output")
	)
	fs.Parse(os.Args[1:])

	if *listRels {
		for _, r := range easched.ConformRelations() {
			fmt.Printf("%-24s %s\n", r.Name, r.Justification)
		}
		return
	}

	opts := easched.ConformOptions{
		Instances: *instances,
		Seed:      *seed,
		MaxTasks:  *maxTasks,
		MaxCores:  *maxCores,
		Minimize:  *minimize,
	}
	if *smoke {
		opts.Instances = 120
		opts.MaxTasks = 6
	}
	if err := applyFilters(&opts, *regimes, *relations, *schedulers); err != nil {
		fatal("%v", err)
	}
	if *verbose {
		last := -1
		opts.Progress = func(done, total int) {
			if pct := done * 100 / total; pct != last || done == total {
				last = pct
				fmt.Fprintf(os.Stderr, "\rconform: %d/%d instances (%d%%)", done, total, pct)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := easched.Conform(ctx, opts)
	if err != nil {
		fatal("conform: %v", err)
	}
	fmt.Println(rep.Summary())

	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fatal("conform: %v", err)
		}
		fmt.Printf("conform: report written to %s\n", *out)
	}
	if *corpus != "" && len(rep.Violations) > 0 {
		n, err := writeCorpus(*corpus, rep.Violations)
		if err != nil {
			fatal("conform: corpus: %v", err)
		}
		fmt.Printf("conform: %d reproducer(s) written to %s\n", n, *corpus)
	}
	if !rep.OK() {
		fmt.Fprintf(os.Stderr, "conform: FAILED with %d violation(s)\n", len(rep.Violations))
		os.Exit(1)
	}
	fmt.Printf("conform: PASS — %d instances, zero violations\n", rep.Instances)
}

// applyFilters resolves the comma-separated name flags, rejecting unknown
// names loudly instead of silently shrinking the matrix.
func applyFilters(opts *easched.ConformOptions, regimes, relations, schedulers string) error {
	for _, name := range splitList(regimes) {
		r, err := task.ParseRegime(name)
		if err != nil {
			return err
		}
		opts.Regimes = append(opts.Regimes, r)
	}
	for _, name := range splitList(relations) {
		rel, ok := metamorphic.RelationByName(name)
		if !ok {
			return fmt.Errorf("unknown relation %q (see -list)", name)
		}
		opts.Relations = append(opts.Relations, rel)
	}
	if names := splitList(schedulers); len(names) > 0 {
		opts.Schedulers = names
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func writeReport(path string, rep *easched.ConformReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeCorpus encodes each violating instance (the minimized reproducer
// when one exists) through the shared fuzz codec and checks it into the
// corpus directory in `go test fuzz v1` format. The filename is derived
// from the encoded bytes, so re-runs are idempotent and distinct
// violations never collide.
func writeCorpus(dir string, vs []easched.ConformViolation) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	written := 0
	seen := map[string]bool{}
	for _, v := range vs {
		inst := v.Base
		if v.Minimized != nil {
			inst = *v.Minimized
		}
		if len(inst.Tasks) == 0 {
			continue
		}
		data := fuzzenc.Encode(inst.Tasks, inst.Cores, inst.Model)
		sum := sha256.Sum256(data)
		name := fmt.Sprintf("conform-%x", sum[:8])
		if seen[name] {
			continue
		}
		seen[name] = true
		if err := os.WriteFile(filepath.Join(dir, name), fuzzenc.CorpusEntry(data), 0o644); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
