package fault

// Branch coverage for the nil-injector fast paths and the accessors the
// chaos soak exercises only incidentally.

import (
	"testing"
	"time"
)

func TestErrorString(t *testing.T) {
	e := &Error{Point: CacheCorrupt}
	if got := e.Error(); got != "fault: injected cache_corrupt" {
		t.Fatalf("Error() = %q", got)
	}
}

func TestDelay(t *testing.T) {
	if got := New(Plan{}).delay; got != 100*time.Millisecond {
		t.Fatalf("zero Delay defaulted to %v, want 100ms", got)
	}
	if got := New(Plan{Delay: time.Second}).delay; got != time.Second {
		t.Fatalf("explicit delay %v, want 1s", got)
	}
}

func TestNilInjectorAccessors(t *testing.T) {
	var in *Injector
	if in.Should(SolverPanic) {
		t.Fatal("nil injector fired")
	}
	if in.Counts() != nil {
		t.Fatal("nil injector returned counts")
	}
	if in.Err(IOError) != nil {
		t.Fatal("nil injector returned an error")
	}
}

func TestEnableNilDisables(t *testing.T) {
	Enable(New(Plan{Rates: map[Point]float64{IOError: 1}, Seed: 1}))
	if !Active().Should(IOError) {
		t.Fatal("enabled injector did not fire")
	}
	Enable(nil)
	if Active() != nil {
		t.Fatal("Enable(nil) left an active injector")
	}
	if Active().Should(IOError) {
		t.Fatal("Enable(nil) still fires")
	}
}

func TestUnknownPointNeverFires(t *testing.T) {
	// A point outside Points() has no counters and no rate: it must be a
	// silent no-op, not a panic on the nil counter map entry.
	in := New(Plan{Rates: map[Point]float64{SolverPanic: 1}, Seed: 1})
	if in.Should(Point("not-a-point")) {
		t.Fatal("unknown point fired")
	}
	if in.fired[SolverPanic].Load() != 0 {
		t.Fatal("unknown-point draw consumed state")
	}
}
