package fault

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestParseRates(t *testing.T) {
	rates, err := ParseRates(" solver_panic=0.25, cache_corrupt=1 ,io_error=0 ")
	if err != nil {
		t.Fatal(err)
	}
	if rates[SolverPanic] != 0.25 || rates[CacheCorrupt] != 1 || rates[IOError] != 0 {
		t.Fatalf("parsed rates wrong: %v", rates)
	}
	if rates, err := ParseRates(""); err != nil || len(rates) != 0 {
		t.Fatalf("empty spec: %v %v", rates, err)
	}
	for _, bad := range []string{
		"solver_panic",        // no rate
		"nope=0.5",            // unknown point
		"solver_panic=1.5",    // rate out of range
		"solver_panic=-0.1",   // negative
		"solver_panic=banana", // not a number
	} {
		if _, err := ParseRates(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestDeterministicSequence pins that two injectors with the same plan
// fire identically, and a different seed fires differently.
func TestDeterministicSequence(t *testing.T) {
	plan := Plan{Rates: map[Point]float64{SolverPanic: 0.3}, Seed: 42}
	a, b := New(plan), New(plan)
	var seqA, seqB []bool
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.Should(SolverPanic))
		seqB = append(seqB, b.Should(SolverPanic))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	if n := a.fired[SolverPanic].Load(); n == 0 || n == 200 {
		t.Fatalf("rate 0.3 fired %d/200 times", n)
	}

	c := New(Plan{Rates: plan.Rates, Seed: 43})
	diverged := false
	for i := 0; i < 200; i++ {
		if c.Should(SolverPanic) != seqA[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced the same 200-draw sequence")
	}
}

// TestDisabledPointsConsumeNoRandomness pins that turning one point off
// does not shift the firing pattern of another.
func TestDisabledPointsConsumeNoRandomness(t *testing.T) {
	both := New(Plan{Rates: map[Point]float64{SolverPanic: 0.5, AllocError: 0.5}, Seed: 7})
	only := New(Plan{Rates: map[Point]float64{SolverPanic: 0.5}, Seed: 7})
	for i := 0; i < 100; i++ {
		a := both.Should(SolverPanic)
		both.Should(IOError) // disabled: must not draw
		b := only.Should(SolverPanic)
		only.Should(IOError)
		if a != b {
			t.Fatalf("disabled point consumed randomness (draw %d)", i)
		}
	}
}

func TestRateEdges(t *testing.T) {
	always := New(Plan{Rates: map[Point]float64{ValidatorReject: 1}, Seed: 1})
	never := New(Plan{Rates: map[Point]float64{}, Seed: 1})
	for i := 0; i < 50; i++ {
		if !always.Should(ValidatorReject) {
			t.Fatal("rate 1 did not fire")
		}
		if never.Should(ValidatorReject) {
			t.Fatal("absent rate fired")
		}
	}
}

func TestTypedError(t *testing.T) {
	in := New(Plan{Rates: map[Point]float64{IOError: 1}, Seed: 1})
	err := in.Err(IOError)
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != IOError {
		t.Fatalf("Err() = %v, want *fault.Error{io_error}", err)
	}
	if in.Err(SolverPanic) != nil {
		t.Fatal("disabled point returned an error")
	}
}

func TestGlobalRegistryDefaultOff(t *testing.T) {
	if Active() != nil {
		t.Fatal("global injector enabled by default")
	}
	if Active().Should(SolverPanic) {
		t.Fatal("nil global injector fired")
	}
	in := New(Plan{Rates: map[Point]float64{SolverPanic: 1}, Seed: 1, Delay: 5 * time.Millisecond})
	Enable(in)
	defer Enable(nil)
	if !Active().Should(SolverPanic) {
		t.Fatal("enabled global injector did not fire")
	}
	Enable(nil)
	if Active().Should(SolverPanic) {
		t.Fatal("disabled global injector fired")
	}
}

func TestConcurrentUse(t *testing.T) {
	in := New(Plan{Rates: map[Point]float64{SolverPanic: 0.5, CacheCorrupt: 0.5}, Seed: 9})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				in.Should(SolverPanic)
				in.Should(CacheCorrupt)
			}
		}()
	}
	wg.Wait()
	for _, c := range in.Counts() {
		if c.Point == SolverPanic || c.Point == CacheCorrupt {
			if c.Fired < 1000 || c.Fired > 3000 {
				t.Fatalf("%s fired %d/4000, far from rate 0.5", c.Point, c.Fired)
			}
		} else if c.Fired != 0 {
			t.Fatalf("%s fired %d times while disabled", c.Point, c.Fired)
		}
	}
}
