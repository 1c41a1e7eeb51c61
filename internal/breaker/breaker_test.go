package breaker

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerOpensAtThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := New(3, time.Second, 8*time.Second, clk.now)

	for i := 0; i < 2; i++ {
		if ok, _ := b.Admit(); !ok {
			t.Fatalf("closed breaker denied request %d", i)
		}
		b.Failure()
	}
	if st := b.Stat("x"); st.State != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", st.State)
	}
	b.Admit()
	b.Failure() // third consecutive failure: opens
	if st := b.Stat("x"); st.State != Open || st.Opened != 1 {
		t.Fatalf("state after threshold = %v (opened=%d), want open once", st.State, st.Opened)
	}
	if ok, _ := b.Admit(); ok {
		t.Fatal("open breaker admitted a request before cooldown")
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := New(2, time.Second, 8*time.Second, clk.now)
	b.Admit()
	b.Failure()
	b.Admit()
	b.Success() // streak broken
	b.Admit()
	b.Failure() // only 1 consecutive again
	if st := b.Stat("x"); st.State != Closed {
		t.Fatalf("state = %v, want closed (success should reset the streak)", st.State)
	}
}

func TestBreakerHalfOpenProbeAndExponentialCooldown(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := New(1, time.Second, 3*time.Second, clk.now)
	b.Admit()
	b.Failure() // threshold 1: opens with 1s cooldown

	if ok, _ := b.Admit(); ok {
		t.Fatal("admitted during cooldown")
	}
	clk.advance(time.Second)
	if ok, _ := b.Admit(); !ok {
		t.Fatal("half-open probe not admitted after cooldown")
	}
	if st := b.Stat("x"); st.State != HalfOpen || st.HalfOpened != 1 {
		t.Fatalf("state = %v (halfOpened=%d), want half-open once", st.State, st.HalfOpened)
	}
	// Only one probe at a time.
	if ok, _ := b.Admit(); ok {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	b.Failure() // probe failed: reopen with doubled cooldown (2s)
	if st := b.Stat("x"); st.State != Open || st.Opened != 2 {
		t.Fatalf("state = %v (opened=%d), want reopened", st.State, st.Opened)
	}
	clk.advance(time.Second)
	if ok, _ := b.Admit(); ok {
		t.Fatal("admitted after 1s; cooldown should have doubled to 2s")
	}
	clk.advance(time.Second)
	if ok, _ := b.Admit(); !ok {
		t.Fatal("probe not admitted after doubled cooldown")
	}
	b.Failure() // doubles to 4s but caps at maxCooldown=3s
	clk.advance(3 * time.Second)
	if ok, _ := b.Admit(); !ok {
		t.Fatal("probe not admitted after capped cooldown")
	}
	b.Success()
	if st := b.Stat("x"); st.State != Closed || st.Closed != 1 {
		t.Fatalf("state = %v (closed=%d), want closed after successful probe", st.State, st.Closed)
	}
	// And a fresh failure streak starts from the base cooldown again.
	b.Admit()
	b.Failure()
	clk.advance(time.Second)
	if ok, _ := b.Admit(); !ok {
		t.Fatal("cooldown did not reset to base after close")
	}
}

// TestBreakerProbeAbortReleasesSlot: a half-open probe whose outcome is
// inconclusive (client cancellation, admission pushback) must release
// the probe slot by re-opening with the cooldown unchanged — otherwise
// the stuck `probing` flag would deny the dependency forever.
func TestBreakerProbeAbortReleasesSlot(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := New(1, time.Second, 8*time.Second, clk.now)
	b.Admit()
	b.Failure() // threshold 1: opens with 1s cooldown
	clk.advance(time.Second)
	ok, probe := b.Admit()
	if !ok || !probe {
		t.Fatalf("admit after cooldown = (%t,%t), want an admitted probe", ok, probe)
	}
	if ok, _ := b.Admit(); ok {
		t.Fatal("second probe admitted while the first is in flight")
	}
	b.ProbeAborted()
	if st := b.Stat("x"); st.State != Open {
		t.Fatalf("state after aborted probe = %v, want open", st.State)
	}
	if ok, _ := b.Admit(); ok {
		t.Fatal("admitted immediately after an aborted probe; the cooldown should apply")
	}
	clk.advance(time.Second) // cooldown unchanged (1s), not doubled as for a failed probe
	ok, probe = b.Admit()
	if !ok || !probe {
		t.Fatalf("probe not re-admitted after unchanged cooldown: (%t,%t)", ok, probe)
	}
	b.Success()
	if st := b.Stat("x"); st.State != Closed {
		t.Fatalf("state after successful probe = %v, want closed", st.State)
	}
	b.ProbeAborted() // no-op outside half-open
	if st := b.Stat("x"); st.State != Closed {
		t.Fatalf("ProbeAborted on a closed breaker moved state to %v", st.State)
	}
}

// TestBreakerStatReportsElapsedOpenAsHalfOpen: once the cooldown has
// elapsed an open breaker is probe-eligible, and Stat()/AllOpen() must
// say so — a load balancer honoring a 503 /readyz would otherwise never
// send the request that drives the open->half-open transition.
func TestBreakerStatReportsElapsedOpenAsHalfOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := NewSet(1, time.Second, 8*time.Second, clk.now)
	b := s.Get("only")
	b.Admit()
	b.Failure()
	if st := b.Stat("only"); st.State != Open {
		t.Fatalf("state during cooldown = %v, want open", st.State)
	}
	if !s.AllOpen() {
		t.Fatal("AllOpen false during cooldown")
	}
	clk.advance(time.Second)
	if st := b.Stat("only"); st.State != HalfOpen {
		t.Fatalf("state after cooldown elapsed = %v, want half-open (probe-eligible)", st.State)
	}
	if s.AllOpen() {
		t.Fatal("AllOpen true after every breaker's cooldown elapsed")
	}
}

func TestBreakerSetDisabledAndAllOpen(t *testing.T) {
	if s := NewSet(0, time.Second, time.Second, nil); s != nil {
		t.Fatal("threshold 0 should disable the set")
	}
	var nilSet *Set
	if nilSet.AllOpen() {
		t.Fatal("nil set reported AllOpen")
	}
	if ok, probe := nilSet.Get("x").Admit(); !ok || probe {
		t.Fatal("nil breaker must always allow, never as a probe")
	}
	nilSet.Get("x").Success()      // nil-safe no-ops
	nilSet.Get("x").Failure()      //
	nilSet.Get("x").ProbeAborted() //
	if st := nilSet.Get("x").Stat("x"); st.State != Closed {
		t.Fatalf("nil breaker stat = %+v, want closed", st)
	}

	clk := &fakeClock{t: time.Unix(0, 0)}
	s := NewSet(1, time.Second, time.Second, clk.now)
	if s.AllOpen() {
		t.Fatal("empty set reported AllOpen")
	}
	a, b := s.Get("A"), s.Get("B")
	a.Admit()
	a.Failure()
	if s.AllOpen() {
		t.Fatal("AllOpen with one closed breaker")
	}
	b.Admit()
	b.Failure()
	if !s.AllOpen() {
		t.Fatal("AllOpen false with every breaker open")
	}
	stats := s.Stats()
	if len(stats) != 2 || stats[0].Name != "A" || stats[1].Name != "B" {
		t.Fatalf("stats = %+v, want sorted A,B", stats)
	}
}
