package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.n != 8 {
		t.Errorf("N = %d", a.n)
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance is
	// 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %g, want %g", a.Variance(), 32.0/7)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("range = [%g, %g]", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Min()) || !math.IsNaN(a.Max()) || !math.IsNaN(a.CI95()) {
		t.Error("empty accumulator should be all NaN")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Mean() != 3 || a.Min() != 3 || a.Max() != 3 {
		t.Error("single-sample stats wrong")
	}
	if !math.IsNaN(a.Variance()) {
		t.Error("variance of one sample should be NaN")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var a Accumulator
		var sum float64
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			sum += xs[i]
			a.Add(xs[i])
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		v := ss / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.Variance()-v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var small, large Accumulator
	for i := 0; i < 10; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(rng.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI should shrink: n=10 → %g, n=1000 → %g", small.CI95(), large.CI95())
	}
}

func TestSummaryString(t *testing.T) {
	var a Accumulator
	a.Add(1)
	a.Add(2)
	if s := a.Summarize().String(); s == "" {
		t.Error("empty summary string")
	}
}

func TestStreamDeterminism(t *testing.T) {
	s1 := NewStream(42)
	s2 := NewStream(42)
	r1 := s1.Rand(3, 5, 7)
	r2 := s2.Rand(3, 5, 7)
	for i := 0; i < 10; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatal("same coordinates must give the same sequence")
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	s := NewStream(42)
	// Different coordinates give different sequences (overwhelmingly).
	a := s.Rand(0, 0, 0).Float64()
	b := s.Rand(0, 0, 1).Float64()
	c := s.Rand(0, 1, 0).Float64()
	d := s.Rand(1, 0, 0).Float64()
	vals := map[float64]bool{a: true, b: true, c: true, d: true}
	if len(vals) != 4 {
		t.Errorf("streams collide: %v %v %v %v", a, b, c, d)
	}
}

func TestStreamBaseSeedMatters(t *testing.T) {
	a := NewStream(1).Rand(0, 0, 0).Float64()
	b := NewStream(2).Rand(0, 0, 0).Float64()
	if a == b {
		t.Error("different base seeds should differ")
	}
}

func TestMissRate(t *testing.T) {
	var m MissRate
	if !math.IsNaN(m.Rate()) {
		t.Error("empty rate should be NaN")
	}
	m.Observe(true)
	m.Observe(false)
	m.Observe(false)
	m.Observe(true)
	if m.Rate() != 0.5 {
		t.Errorf("rate = %g, want 0.5", m.Rate())
	}
	misses, total := m.misses, m.total
	if misses != 2 || total != 4 {
		t.Errorf("counts = %d/%d", misses, total)
	}
}

func BenchmarkAccumulator(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i % 97))
	}
}

func BenchmarkStreamRand(b *testing.B) {
	s := NewStream(7)
	for i := 0; i < b.N; i++ {
		s.Rand(1, 2, i)
	}
}
