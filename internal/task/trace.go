package task

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
)

// Arrival is one timed batch of an arrival trace: tasks that become
// known to an online scheduler at virtual time At. Task IDs within a
// batch are positional; consumers assign their own global IDs.
type Arrival struct {
	At    float64 `json:"at"`
	Tasks Set     `json:"tasks"`
}

// Trace is a time-ordered sequence of arrival batches, the input of a
// streaming scheduling session (internal/dispatch, schedload -stream).
type Trace []Arrival

// Validate checks that batches are non-empty, time-ordered, and that
// every task is individually well-formed with a deadline after its
// arrival instant (a task arriving at its deadline is dead on arrival).
func (tr Trace) Validate() error {
	prev := math.Inf(-1)
	for i, a := range tr {
		if math.IsNaN(a.At) || math.IsInf(a.At, 0) || a.At < 0 {
			return fmt.Errorf("task: arrival %d: at=%g must be finite and >= 0", i, a.At)
		}
		if a.At < prev {
			return fmt.Errorf("task: arrival %d: at=%g before previous %g", i, a.At, prev)
		}
		prev = a.At
		if len(a.Tasks) == 0 {
			return fmt.Errorf("task: arrival %d: empty batch", i)
		}
		for j, t := range a.Tasks {
			if err := t.Validate(); err != nil {
				return fmt.Errorf("task: arrival %d task %d: %w", i, j, err)
			}
			if t.Deadline <= a.At {
				return fmt.Errorf("task: arrival %d task %d: deadline %g <= arrival time %g",
					i, j, t.Deadline, a.At)
			}
		}
	}
	return nil
}

// Write streams the trace as indented JSON.
func (tr Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// ReadTrace decodes and validates a trace written with Write.
func ReadTrace(r io.Reader) (Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ArrivalProcess names the inter-arrival structure of a generated trace.
type ArrivalProcess string

const (
	// ArrivalPoisson spaces batches with exponential inter-arrival gaps
	// (a Poisson process of the configured rate).
	ArrivalPoisson ArrivalProcess = "poisson"
	// ArrivalBursty clusters batches around a few burst centers —
	// arrival storms separated by idle stretches, the shape streaming
	// sessions' debounce-window coalescing exists for.
	ArrivalBursty ArrivalProcess = "bursty"
)

// ArrivalProcesses lists the supported processes in stable order.
func ArrivalProcesses() []ArrivalProcess {
	return []ArrivalProcess{ArrivalPoisson, ArrivalBursty}
}

// ArrivalParams configures GenerateTrace.
type ArrivalParams struct {
	// Process selects the inter-arrival structure (default poisson).
	Process ArrivalProcess
	// Batches is the number of arrival batches (must be > 0).
	Batches int
	// Rate is the mean batch-arrival rate per time unit of the Poisson
	// process (default 0.5); bursty traces spread their burst centers
	// over the same Batches/Rate horizon.
	Rate float64
	// BatchLo/BatchHi bound the tasks per batch (defaults 1 and 3).
	BatchLo, BatchHi int
	// Regime shapes the tasks inside each batch (default the zoo's
	// bursty regime). Generated tasks are re-anchored to release exactly
	// at their arrival time, preserving the regime's work and laxity
	// structure.
	Regime Regime
}

func (p ArrivalParams) withDefaults() ArrivalParams {
	if p.Process == "" {
		p.Process = ArrivalPoisson
	}
	if p.Rate <= 0 {
		p.Rate = 0.5
	}
	if p.BatchLo <= 0 {
		p.BatchLo = 1
	}
	if p.BatchHi < p.BatchLo {
		p.BatchHi = p.BatchLo + 2
	}
	if p.Regime == "" {
		p.Regime = RegimeBursty
	}
	return p
}

// GenerateTrace draws a timed arrival trace: batch times from the
// configured process, batch contents from the generator zoo regime,
// re-anchored so every task releases at its arrival instant (window
// lengths preserved). Callers own seeding, so generation is fully
// deterministic for a given rng.
func GenerateTrace(rng *rand.Rand, p ArrivalParams) (Trace, error) {
	p = p.withDefaults()
	if p.Batches <= 0 {
		return nil, fmt.Errorf("task: trace needs Batches > 0, have %d", p.Batches)
	}
	times := make([]float64, p.Batches)
	switch p.Process {
	case ArrivalPoisson:
		t := 0.0
		for i := range times {
			t += rng.ExpFloat64() / p.Rate
			times[i] = t
		}
	case ArrivalBursty:
		// Few centers relative to batch count: most batches land inside a
		// storm (short exponential offsets from a shared center), with
		// idle stretches between storms.
		span := float64(p.Batches) / p.Rate
		k := 1 + p.Batches/10
		centers := make([]float64, k)
		for i := range centers {
			centers[i] = uniform(rng, 0, span)
		}
		for i := range times {
			times[i] = centers[rng.Intn(k)] + rng.ExpFloat64()*2
		}
		sort.Float64s(times)
	default:
		return nil, fmt.Errorf("task: unknown arrival process %q (have %v)", p.Process, ArrivalProcesses())
	}

	tr := make(Trace, p.Batches)
	for i, at := range times {
		n := p.BatchLo
		if p.BatchHi > p.BatchLo {
			n += rng.Intn(p.BatchHi - p.BatchLo + 1)
		}
		ts, err := GenerateRegime(rng, p.Regime, n)
		if err != nil {
			return nil, err
		}
		for j := range ts {
			window := ts[j].Deadline - ts[j].Release
			ts[j].Release = at
			ts[j].Deadline = at + window
		}
		ts.Renumber()
		tr[i] = Arrival{At: at, Tasks: ts}
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("task: generated trace invalid: %w", err)
	}
	return tr, nil
}
