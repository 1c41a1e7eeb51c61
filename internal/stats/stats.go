// Package stats provides the small statistical toolkit behind the
// experiment harness: streaming moment accumulation (Welford), confidence
// intervals, and deterministic per-replication RNG derivation so that
// sweeps are reproducible and order-independent.
package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Accumulator collects a stream of observations with Welford's online
// algorithm, which is numerically stable for long runs. The zero value is
// ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Mean returns the sample mean (NaN when empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the unbiased sample variance (NaN below two samples).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Variance()) }

// Min and Max return the extremes (NaN when empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean: 1.96·s/√n (NaN below two samples).
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return 1.96 * a.Std() / math.Sqrt(float64(a.n))
}

// Summary is a value snapshot of an Accumulator, convenient for tables.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	CI95      float64
}

// Summarize snapshots the accumulator.
func (a *Accumulator) Summarize() Summary {
	return Summary{N: a.n, Mean: a.Mean(), Std: a.Std(), Min: a.Min(), Max: a.Max(), CI95: a.CI95()}
}

func (s Summary) String() string {
	return fmt.Sprintf("mean=%.4f ±%.4f (n=%d, σ=%.4f, range [%.4f, %.4f])",
		s.Mean, s.CI95, s.N, s.Std, s.Min, s.Max)
}

// Stream derives independent, reproducible RNGs for replicated
// experiments. Two streams with the same base seed and the same
// (experiment, point, replication) coordinates always produce the same
// sequence, regardless of evaluation order or parallelism.
type Stream struct {
	base int64
}

// NewStream creates a stream family from a base seed.
func NewStream(base int64) *Stream { return &Stream{base: base} }

// Rand returns the RNG for the given coordinates. The mixing uses
// SplitMix64-style avalanche so nearby coordinates decorrelate.
func (s *Stream) Rand(experiment, point, replication int) *rand.Rand {
	z := uint64(s.base) ^ 0x9E3779B97F4A7C15
	for _, v := range [...]uint64{uint64(experiment) + 1, uint64(point) + 1, uint64(replication) + 1} {
		z += v * 0xBF58476D1CE4E5B9
		z ^= z >> 30
		z *= 0x94D049BB133111EB
		z ^= z >> 27
	}
	return rand.New(rand.NewSource(int64(z & math.MaxInt64)))
}

// MissRate is a Bernoulli accumulator for deadline-miss probabilities.
type MissRate struct {
	misses, total int
}

// Observe records one trial.
func (m *MissRate) Observe(missed bool) {
	m.total++
	if missed {
		m.misses++
	}
}

// Rate returns the empirical miss probability (NaN when empty).
func (m *MissRate) Rate() float64 {
	if m.total == 0 {
		return math.NaN()
	}
	return float64(m.misses) / float64(m.total)
}
