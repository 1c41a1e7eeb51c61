package easched

import (
	"io"
	"math/rand"

	"repro/internal/capped"
	"repro/internal/discrete"
	"repro/internal/feas"
	"repro/internal/governor"
	"repro/internal/hetero"
	"repro/internal/interval"
	"repro/internal/online"
	"repro/internal/periodic"
	"repro/internal/trace"
)

// --- Feasibility analysis (max-flow based) ---

// Feasible reports whether the task set can meet every deadline on m
// cores when all execution runs at (or below) the frequency ceiling —
// the max-flow schedulability test.
func Feasible(ts TaskSet, cores int, frequencyCeiling float64) (bool, error) {
	return feas.CheckTaskSet(ts, cores, frequencyCeiling)
}

// MinimalSpeed returns the smallest uniform frequency at which the task
// set is schedulable on m cores (the multiprocessor generalization of the
// maximum interval intensity).
func MinimalSpeed(ts TaskSet, cores int) (float64, error) {
	d, err := interval.Decompose(ts, 1e-9)
	if err != nil {
		return 0, err
	}
	s, _, err := feas.MinSpeed(d, cores, 1e-9)
	return s, err
}

// --- Classic task models (periodic / sporadic) ---

// PeriodicTask is one periodic or sporadic task: exact (or minimum)
// inter-release Period, per-job WCET, optional relative Deadline
// (implicit = Period) and first-release Offset.
type PeriodicTask = periodic.Task

// PeriodicSystem is a set of periodic/sporadic tasks.
type PeriodicSystem = periodic.System

// Unroll expands a periodic system over [0, horizon) into the aperiodic
// job set the paper's schedulers consume.
func Unroll(s PeriodicSystem, horizon float64) (TaskSet, error) {
	return periodic.Unroll(s, horizon)
}

// UnrollSporadic expands a sporadic system with randomized legal
// arrivals: inter-release gaps are Period·(1 + jitter·U).
func UnrollSporadic(rng *rand.Rand, s PeriodicSystem, horizon, jitter float64) (TaskSet, error) {
	return periodic.UnrollSporadic(rng, s, horizon, jitter)
}

// Hyperperiod returns the LCM of the system's periods on a quantized
// grid (see periodic.System.Hyperperiod).
func Hyperperiod(s PeriodicSystem, quantum float64) (float64, error) {
	return s.Hyperperiod(quantum, 0)
}

// --- Baselines ---

// ScheduleFixedSpeedEDF runs the no-DVFS baseline: global EDF at one
// constant speed. The result reports deadline misses rather than failing.
func ScheduleFixedSpeedEDF(ts TaskSet, cores int, m Model, speed float64) (*online.Result, error) {
	return online.FixedSpeedEDF(ts, cores, m, speed)
}

// GovernorPolicy selects an OS-style reactive DVFS policy.
type GovernorPolicy = governor.Policy

// Governor policies.
const (
	// GovernorPerformance pins every core at the maximum frequency.
	GovernorPerformance = governor.Performance
	// GovernorOndemand jumps to maximum under load, drops proportionally
	// when idle (cpufreq "ondemand").
	GovernorOndemand = governor.Ondemand
	// GovernorConservative steps one operating point at a time.
	GovernorConservative = governor.Conservative
)

// RunGovernor simulates a cpufreq-style reactive governor with global EDF
// dispatching on a discrete-frequency processor — the deadline-oblivious
// baseline practical systems ship. samplePeriod is the governor's
// evaluation interval in task time units.
func RunGovernor(ts TaskSet, cores int, tab *Table, policy GovernorPolicy, samplePeriod float64) (*governor.Result, error) {
	return governor.Run(ts, cores, tab, governor.Config{Policy: policy, SamplePeriod: samplePeriod})
}

// --- Frequency-cap-aware scheduling (extension beyond the paper) ---

// CappedPlan is the output of the cap-aware scheduler.
type CappedPlan = capped.Result

// ErrInfeasibleAtCap is returned when the task set cannot meet its
// deadlines at the frequency cap on the given core count.
var ErrInfeasibleAtCap = capped.ErrInfeasible

// --- Heterogeneous static power (extension beyond the paper) ---

// HeteroPlatform models cores that share the dynamic power curve but
// differ in static power (big.LITTLE-style leakage asymmetry). Schedule
// with the uniform mean-leakage model, then AssignCores maps the
// schedule's virtual cores onto physical cores optimally (rearrangement
// inequality) and Energy accounts the result.
type HeteroPlatform = hetero.Platform

// NewHeteroPlatform builds a platform from the shared dynamic curve and
// per-core static powers.
func NewHeteroPlatform(gamma, alpha float64, staticPower ...float64) (*HeteroPlatform, error) {
	return hetero.NewPlatform(gamma, alpha, staticPower...)
}

// --- Discrete-frequency refinements ---

// QuantizeSplit maps a continuous schedule onto the table using two-level
// frequency splitting: work may be divided between the two operating
// points bracketing the continuous frequency, paying the convex envelope
// of the table. Never worse than Quantize, same miss behaviour.
func QuantizeSplit(t *Timetable, tab *Table) discrete.Assignment {
	return discrete.QuantizeScheduleSplit(t, tab)
}

// --- Export ---

// WriteChromeTrace serializes a schedule as a Chrome trace-event JSON
// document (open in chrome://tracing or Perfetto). usPerUnit scales
// schedule time units to microseconds.
func WriteChromeTrace(w io.Writer, t *Timetable, usPerUnit float64) error {
	return trace.WriteChrome(w, t, usPerUnit)
}

// WriteScheduleCSV serializes a schedule's segments as CSV.
func WriteScheduleCSV(w io.Writer, t *Timetable) error {
	return trace.WriteScheduleCSV(w, t)
}
