package numeric

import (
	"math"
	"math/rand"
	"testing"
)

func TestKahanSumPrecision(t *testing.T) {
	// Summing 1e8 copies of 0.1 naively drifts; Kahan should be exact to
	// ~1 ulp of the total. Use a smaller but still adversarial series.
	var k KahanSum
	n := 1_000_000
	for i := 0; i < n; i++ {
		k.Add(0.1)
	}
	want := float64(n) * 0.1
	if math.Abs(k.Value()-want) > 1e-6 {
		t.Errorf("Kahan sum of %d*0.1 = %.12f, want %.12f", n, k.Value(), want)
	}
}

func TestKahanSumCancellation(t *testing.T) {
	var k KahanSum
	k.Add(1e16)
	k.Add(1)
	k.Add(-1e16)
	if got := k.Value(); got != 1 {
		t.Errorf("compensated sum = %g, want 1", got)
	}
}

func TestSumMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var plain float64
	for i := range xs {
		xs[i] = rng.NormFloat64()
		plain += xs[i]
	}
	if math.Abs(Sum(xs)-plain) > 1e-9*math.Max(1, math.Abs(plain)) {
		t.Errorf("Sum = %g, loop = %g", Sum(xs), plain)
	}
}

func TestBisect(t *testing.T) {
	f := func(x float64) float64 { return x*x*x - 8 }
	got, err := Bisect(f, 0, 10, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("root = %g, want 2", got)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -5, 5, 1e-12); err != ErrNoBracket {
		t.Errorf("expected ErrNoBracket, got %v", err)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x - 3 }
	got, err := Bisect(f, 3, 10, 1e-12)
	if err != nil || got != 3 {
		t.Errorf("endpoint root: got %g, %v", got, err)
	}
	got, err = Bisect(f, -1, 3, 1e-12)
	if err != nil || got != 3 {
		t.Errorf("endpoint root: got %g, %v", got, err)
	}
}

func TestMinimizeConvex1D(t *testing.T) {
	// d/dx of (x-4)^2 is 2(x-4).
	df := func(x float64) float64 { return 2 * (x - 4) }
	got := MinimizeConvex1D(df, 0, 10, 1e-12)
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("minimizer = %g, want 4", got)
	}
	// Minimum at the left boundary.
	got = MinimizeConvex1D(df, 6, 10, 1e-12)
	if got != 6 {
		t.Errorf("boundary minimizer = %g, want 6", got)
	}
	// Minimum at the right boundary.
	got = MinimizeConvex1D(df, 0, 2, 1e-12)
	if got != 2 {
		t.Errorf("boundary minimizer = %g, want 2", got)
	}
}

func BenchmarkKahanSum(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(7))
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sum(xs)
	}
}
