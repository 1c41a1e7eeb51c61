package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBrentQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 2.5) * (x - 2.5) }
	got := Brent(f, 0, 10, 1e-12, 0)
	if math.Abs(got-2.5) > 1e-8 {
		t.Errorf("minimizer = %g, want 2.5", got)
	}
}

func TestBrentMatchesGoldenSection(t *testing.T) {
	// On the paper's per-task energy curve both minimizers agree.
	const p0 = 0.25
	f := func(x float64) float64 { return x*x + p0/x }
	brent := Brent(f, 1e-3, 10, 1e-12, 0)
	golden := goldenSection(f, 1e-3, 10, 1e-12)
	if math.Abs(brent-golden) > 1e-7 {
		t.Errorf("brent %g vs golden %g", brent, golden)
	}
	want := math.Pow(p0/2, 1.0/3)
	if math.Abs(brent-want) > 1e-8 {
		t.Errorf("brent %g, analytic %g", brent, want)
	}
}

func TestBrentBoundaryMinimum(t *testing.T) {
	f := func(x float64) float64 { return x }
	got := Brent(f, 3, 7, 1e-10, 0)
	if math.Abs(got-3) > 1e-6 {
		t.Errorf("minimizer = %g, want boundary 3", got)
	}
}

func TestBrentSwappedBounds(t *testing.T) {
	f := func(x float64) float64 { return math.Abs(x - 1) }
	got := Brent(f, 10, 0, 1e-12, 0)
	if math.Abs(got-1) > 1e-8 {
		t.Errorf("minimizer = %g, want 1", got)
	}
}

func TestBrentConvergesFasterOnSmooth(t *testing.T) {
	// Count evaluations: Brent should need (many) fewer than golden
	// section on a smooth quartic at equal tolerance.
	quartic := func(c *int) func(float64) float64 {
		return func(x float64) float64 {
			*c++
			d := x - 1.234567
			return d*d*d*d + 2*d*d
		}
	}
	var nb, ng int
	_ = Brent(quartic(&nb), -10, 10, 1e-10, 0)
	_ = goldenSection(quartic(&ng), -10, 10, 1e-10)
	if nb >= ng {
		t.Errorf("Brent used %d evals, golden %d — expected fewer", nb, ng)
	}
}

func TestBrentPropertyQuadratics(t *testing.T) {
	f := func(center float64) bool {
		c := math.Mod(math.Abs(center), 100)
		g := func(x float64) float64 { return (x - c) * (x - c) }
		got := Brent(g, -1, 101, 1e-10, 0)
		return math.Abs(got-c) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBrent(b *testing.B) {
	f := func(x float64) float64 { return x*x + 0.25/x }
	for i := 0; i < b.N; i++ {
		Brent(f, 1e-3, 10, 1e-10, 0)
	}
}

// invPhi is 1/phi, the golden-section step ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// goldenSection is the reference minimizer Brent is checked against.
// It minimizes the unimodal function f on [a, b] to within the
// absolute x-tolerance tol and returns the approximate minimizer. It
// evaluates f O(log((b-a)/tol)) times. If a > b the arguments are swapped.
func goldenSection(f func(float64) float64, a, b, tol float64) float64 {
	if a > b {
		a, b = b, a
	}
	if tol <= 0 {
		tol = 1e-12
	}
	if b-a <= tol {
		return (a + b) / 2
	}
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 <= f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return (a + b) / 2
}

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 2.5) * (x - 2.5) }
	got := goldenSection(f, 0, 10, 1e-10)
	if math.Abs(got-2.5) > 1e-8 {
		t.Errorf("minimizer = %g, want 2.5", got)
	}
}

func TestGoldenSectionSwappedBounds(t *testing.T) {
	f := func(x float64) float64 { return math.Abs(x - 1) }
	got := goldenSection(f, 10, 0, 1e-10)
	if math.Abs(got-1) > 1e-8 {
		t.Errorf("minimizer = %g, want 1", got)
	}
}

func TestGoldenSectionBoundaryMinimum(t *testing.T) {
	f := func(x float64) float64 { return x }
	got := goldenSection(f, 3, 7, 1e-10)
	if math.Abs(got-3) > 1e-8 {
		t.Errorf("minimizer = %g, want boundary 3", got)
	}
}

func TestGoldenSectionEnergyShape(t *testing.T) {
	// The per-task energy curve from the paper: E(f) = C(f^2 + p0/f),
	// minimized at f* = (p0/(alpha-1))^(1/alpha) with alpha=3.
	const p0 = 0.25
	f := func(x float64) float64 { return x*x + p0/x }
	got := goldenSection(f, 1e-3, 10, 1e-12)
	want := math.Pow(p0/2, 1.0/3)
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("energy minimizer = %g, want %g", got, want)
	}
}

func TestGoldenSectionPropertyQuadratics(t *testing.T) {
	f := func(center float64) bool {
		c := math.Mod(math.Abs(center), 100)
		g := func(x float64) float64 { return (x - c) * (x - c) }
		got := goldenSection(g, -1, 101, 1e-10)
		return math.Abs(got-c) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGoldenSection(b *testing.B) {
	f := func(x float64) float64 { return x*x + 0.25/x }
	for i := 0; i < b.N; i++ {
		goldenSection(f, 1e-3, 10, 1e-10)
	}
}
