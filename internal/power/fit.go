package power

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// FitResult is the outcome of fitting p(f) = γ·f^α + p0 to a discrete
// power table (Section VI.C). For the Intel XScale table the paper reports
// p(f) = 3.855e-7·f^2.867 + 63.58 (mW, MHz); our fitter lands on the same
// curve shape.
type FitResult struct {
	Model Model
	// RMSE is the root-mean-square error of the fit over the table points,
	// in the table's power unit.
	RMSE float64
}

// Fit computes the least-squares fit of the continuous model to the
// table. For a fixed exponent α the problem is linear in (γ, p0) and
// solved exactly via the 2×2 normal equations; the outer minimization
// over α uses Brent's method on [alphaLo, alphaHi]. Negative
// intercepts are clamped to p0 = 0 with γ refit, keeping the model
// physical. Fit requires at least three table points.
func Fit(t *Table, alphaLo, alphaHi float64) (FitResult, error) {
	if t.Len() < 3 {
		return FitResult{}, fmt.Errorf("power: need >= 3 points to fit, have %d", t.Len())
	}
	if alphaLo <= 0 || alphaHi <= alphaLo {
		return FitResult{}, fmt.Errorf("power: invalid alpha range [%g, %g]", alphaLo, alphaHi)
	}
	sse := func(alpha float64) float64 {
		_, _, s := fitLinear(t, alpha)
		return s
	}
	// The SSE is smooth in α, so Brent's parabolic steps converge much
	// faster than plain golden section.
	alpha := numeric.Brent(sse, alphaLo, alphaHi, 1e-10, 0)
	gamma, p0, s := fitLinear(t, alpha)
	m := Model{Gamma: gamma, Alpha: alpha, P0: p0}
	if err := validateFit(m); err != nil {
		return FitResult{}, err
	}
	return FitResult{
		Model: m,
		RMSE:  math.Sqrt(s / float64(t.Len())),
	}, nil
}

// FitDefault fits with the conventional DVFS exponent range α ∈ [2, 3.5].
func FitDefault(t *Table) (FitResult, error) { return Fit(t, 2, 3.5) }

// validateFit relaxes Model.Validate for fitted models: a fitted alpha
// may be fractional but must still be >= 2 for the downstream convexity
// arguments; gamma must be positive.
func validateFit(m Model) error {
	if !(m.Gamma > 0) {
		return fmt.Errorf("power: fit produced non-positive gamma %g", m.Gamma)
	}
	if m.Alpha < 2 {
		return fmt.Errorf("power: fit produced alpha %g < 2; widen the range or check the table", m.Alpha)
	}
	if m.P0 < 0 {
		return fmt.Errorf("power: fit produced negative static power %g", m.P0)
	}
	return nil
}

// fitLinear solves min_{γ,p0} Σ (γ·f_k^α + p0 − p_k)² exactly and returns
// the optimum together with the sum of squared errors. When the
// unconstrained intercept is negative it refits with p0 = 0.
func fitLinear(t *Table, alpha float64) (gamma, p0, sse float64) {
	n := float64(t.Len())
	var sx, sy, sxx, sxy float64
	for i := 0; i < t.Len(); i++ {
		l := t.Level(i)
		x := math.Pow(l.Frequency, alpha)
		y := l.Power
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	det := n*sxx - sx*sx
	if det <= 0 {
		// Degenerate design (all frequencies equal) — callers reject this
		// earlier via NewTable's strict monotonicity, so just fit γ alone.
		gamma = sxy / sxx
		p0 = 0
	} else {
		gamma = (n*sxy - sx*sy) / det
		p0 = (sy - gamma*sx) / n
		if p0 < 0 {
			p0 = 0
			gamma = sxy / sxx
		}
	}
	for i := 0; i < t.Len(); i++ {
		l := t.Level(i)
		r := gamma*math.Pow(l.Frequency, alpha) + p0 - l.Power
		sse += r * r
	}
	return gamma, p0, sse
}
