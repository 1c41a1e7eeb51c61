package server

import (
	"bytes"
	"testing"

	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

func mustSet(t *testing.T, triples ...[3]float64) task.Set {
	t.Helper()
	ts, err := task.New(triples...)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestSolveKeyDistinguishesInputs(t *testing.T) {
	base := mustSet(t, [3]float64{0, 8, 10}, [3]float64{2, 14, 18})
	pm := power.Model{Gamma: 1, Alpha: 3, P0: 0.05}
	k0 := solveKey("S^F2", base, 4, pm)

	if k := solveKey("S^F2", base, 4, pm); k != k0 {
		t.Fatal("identical inputs hashed differently")
	}
	if k := solveKey("S^F1", base, 4, pm); k == k0 {
		t.Fatal("algorithm name not part of the key")
	}
	if k := solveKey("S^F2", base, 2, pm); k == k0 {
		t.Fatal("core count not part of the key")
	}
	if k := solveKey("S^F2", base, 4, power.Model{Gamma: 1, Alpha: 3, P0: 0.06}); k == k0 {
		t.Fatal("power model not part of the key")
	}
	bumped := mustSet(t, [3]float64{0, 8, 10}, [3]float64{2, 14, 18.0000000001})
	if k := solveKey("S^F2", bumped, 4, pm); k == k0 {
		t.Fatal("sub-ulp task change not part of the key")
	}
	// Name/cores boundary must not alias: ("S^F24", …) vs ("S^F2", 4…) can
	// only differ through the name terminator.
	if k := solveKey("S^F24", base, 4, pm); k == k0 {
		t.Fatal("name/cores boundary aliased")
	}
}

// encoded is a small encoded reply naming alg, for cache tests.
func encoded(t *testing.T, alg string) *wire.EncodedSchedule {
	t.Helper()
	enc, err := wire.EncodeSchedule(&wire.ScheduleResponse{Algorithm: alg, Cores: 1},
		[]schedule.Segment{{Start: 0, End: 1, Frequency: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestSolveCacheLRU(t *testing.T) {
	c := newSolveCache(2)
	pm := power.Model{Gamma: 1, Alpha: 3}
	ka := solveKey("a", nil, 1, pm)
	kb := solveKey("b", nil, 1, pm)
	kc := solveKey("c", nil, 1, pm)
	a, b, cc := encoded(t, "a"), encoded(t, "b"), encoded(t, "c")

	c.Put(ka, a)
	c.Put(kb, b)
	if c.order.Len() != 2 {
		t.Fatalf("len %d, want 2", c.order.Len())
	}

	// Touch a so b becomes least recently used, then insert c: b evicts.
	if _, ok, _ := c.Get(ka); !ok {
		t.Fatal("a missing")
	}
	c.Put(kc, cc)
	if _, ok, _ := c.Get(kb); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok, _ := c.Get(ka); !ok || v != a {
		t.Fatal("a should have survived (it was promoted)")
	}
	if v, ok, _ := c.Get(kc); !ok || v != cc {
		t.Fatal("c missing")
	}

	// Refreshing an existing key replaces the value without growing.
	a2 := encoded(t, "a2")
	c.Put(ka, a2)
	if v, _, _ := c.Get(ka); v != a2 {
		t.Fatal("refresh did not replace the value")
	}
	if c.order.Len() != 2 {
		t.Fatalf("len %d after refresh, want 2", c.order.Len())
	}
}

// TestSolveCacheCorrupt: a damaged entry fails its CRC32C on the next
// Get, which reports it corrupted and evicts it; the bytes earlier hits
// returned stay intact, and a later Put restores the entry.
func TestSolveCacheCorrupt(t *testing.T) {
	c := newSolveCache(2)
	k := solveKey("a", nil, 1, power.Model{Gamma: 1, Alpha: 3})
	if c.Corrupt(k) {
		t.Fatal("corrupted an absent entry")
	}
	a := encoded(t, "a")
	body := append([]byte(nil), a.Body...)
	c.Put(k, a)
	if !c.Corrupt(k) {
		t.Fatal("Corrupt found no entry")
	}
	if !bytes.Equal(a.Body, body) {
		t.Fatal("Corrupt mutated bytes a reply may still be writing")
	}
	if v, ok, corrupted := c.Get(k); ok || !corrupted || v != nil {
		t.Fatalf("Get after Corrupt: ok=%v corrupted=%v, want a reported corruption", ok, corrupted)
	}
	if c.order.Len() != 0 {
		t.Fatalf("corrupted entry not evicted: len %d", c.order.Len())
	}
	if _, ok, corrupted := c.Get(k); ok || corrupted {
		t.Fatal("evicted entry still present")
	}
	c.Put(k, a)
	if v, ok, corrupted := c.Get(k); !ok || corrupted || v != a {
		t.Fatal("Put did not restore the entry")
	}
}

func TestSolveCacheDisabled(t *testing.T) {
	c := newSolveCache(0)
	k := solveKey("a", nil, 1, power.Model{Alpha: 2, Gamma: 1})
	c.Put(k, encoded(t, "a"))
	if _, ok, _ := c.Get(k); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.order.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}
