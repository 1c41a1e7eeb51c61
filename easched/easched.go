// Package easched is the public API of the energy-aware aperiodic-task
// scheduling library, a reproduction of Li & Wu, "Energy-Aware Scheduling
// for Aperiodic Tasks on Multi-core Processors" (ICPP 2014).
//
// The package wraps the internal substrates behind a small surface:
//
//   - describe a workload with Task values (release, work, deadline);
//   - describe the platform with a power model p(f) = γ·f^α + p0 and a
//     core count;
//   - call Solve with a Spec to obtain a concrete, validated,
//     collision-free multi-core DVFS schedule — by default the paper's
//     recommended DER-based subinterval heuristic — optionally compared
//     against the convex-programming optimum (Spec.Compare) and
//     quantized onto a real processor's frequency table (Spec.Discrete);
//   - call SolveBatch to solve many independent instances across a
//     worker pool;
//   - execute any schedule in the discrete-event simulator with
//     Simulate.
//
// A minimal session:
//
//	tasks := easched.MustTasks(
//	    easched.T(0, 8, 10),   // release 0, work 8, deadline 10
//	    easched.T(2, 14, 18),
//	)
//	model := easched.NewModel(3, 0.05)     // p(f) = f³ + 0.05
//	rep, err := easched.Solve(ctx, easched.Spec{Tasks: tasks, Cores: 4, Model: model})
//	fmt.Println(rep.Energy, rep.Schedule.Gantt(64))
package easched

import (
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/discrete"
	"repro/internal/ideal"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/task"
)

// Task re-exports the aperiodic task model: τ = (Release, Work, Deadline).
type Task = task.Task

// TaskSet is an ordered collection of tasks with positional IDs.
type TaskSet = task.Set

// GenParams configures the random workload generator of the paper's
// evaluation (releases, work and intensity ranges).
type GenParams = task.GenParams

// Model is the continuous power model p(f) = Gamma·f^Alpha + P0.
type Model = power.Model

// Table is a discrete frequency/power table of a practical processor.
type Table = power.Table

// Level is one operating point of a Table.
type Level = power.Level

// Schedule types.
type (
	// Plan is the full output of the subinterval scheduler: the ideal
	// plan, the allocation, the realized intermediate and final schedules
	// and their energies.
	Plan = core.Result
	// Timetable is a concrete multi-core schedule (segments with
	// frequencies) with validation, energy accounting and Gantt rendering.
	Timetable = schedule.Schedule
	// Segment is one contiguous execution of a task on a core.
	Segment = schedule.Segment
)

// Method selects the heavily-overlapped-subinterval allocation policy.
type Method = alloc.Method

// Allocation policies (Section V of the paper).
const (
	// Even splits capacity evenly among overlapping tasks (S^I1/S^F1).
	Even = alloc.Even
	// DER splits capacity by Desired Execution Requirement (S^I2/S^F2) —
	// the paper's recommended method.
	DER = alloc.DER
)

// T constructs a task (release, work, deadline); IDs are assigned by
// NewTasks/MustTasks positionally.
func T(release, work, deadline float64) [3]float64 {
	return [3]float64{release, work, deadline}
}

// NewTasks validates and builds a TaskSet from T(...) triples.
func NewTasks(triples ...[3]float64) (TaskSet, error) { return task.New(triples...) }

// MustTasks is NewTasks but panics on invalid input.
func MustTasks(triples ...[3]float64) TaskSet { return task.MustNew(triples...) }

// GenerateTasks draws a random workload; see PaperWorkload and
// XScaleWorkload for the paper's configurations.
func GenerateTasks(rng *rand.Rand, p GenParams) (TaskSet, error) { return task.Generate(rng, p) }

// PaperWorkload returns the generator parameters of Figures 6-10
// (n tasks, releases on [0,200], work on [10,30], intensity on [0.1,1]).
func PaperWorkload(n int) GenParams { return task.PaperDefaults(n) }

// XScaleWorkload returns the generator parameters of the practical
// XScale experiment (Section VI.C).
func XScaleWorkload(n int) GenParams { return task.XScaleDefaults(n) }

// NewModel returns the unit-coefficient model p(f) = f^alpha + p0.
func NewModel(alpha, p0 float64) Model { return power.Unit(alpha, p0) }

// IntelXScale returns the Intel XScale frequency/power table (Table III).
func IntelXScale() *Table { return power.IntelXScale() }

// FitTable fits p(f) = γ·f^α + p0 to a discrete table (Section VI.C) and
// returns the continuous model.
func FitTable(t *Table) (Model, error) {
	fit, err := power.FitDefault(t)
	if err != nil {
		return Model{}, err
	}
	return fit.Model, nil
}

// SearchCores simulates every core count 1..maxCores and returns the
// energy-minimal plan together with the per-count energy curve
// (Section VI.D).
func SearchCores(ts TaskSet, maxCores int, m Model, method Method) (*core.SearchResult, error) {
	return core.SearchCores(ts, maxCores, m, method, core.Options{Tolerance: 1e-9})
}

// Ideal computes the unlimited-core lower-bound plan S^O.
func Ideal(ts TaskSet, m Model) (*ideal.Plan, error) { return ideal.Build(ts, m) }

// Quantize maps a continuous schedule onto a processor's discrete
// operating points (rounding up, deadline-safe below f_max) and returns
// the table-measured energy and deadline misses.
func Quantize(t *Timetable, tab *Table) discrete.Assignment {
	return discrete.QuantizeSchedule(t, tab, discrete.RoundUp)
}

// Simulate replays a schedule through the discrete-event executor,
// returning energy, utilization, completion times, and any violations.
func Simulate(t *Timetable, m Model) (*sim.Report, error) { return sim.Run(t, m) }
