package server

import (
	"testing"

	"repro/internal/power"
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

func TestSolveCacheLRU(t *testing.T) {
	c := newSolveCache(2)
	pm := power.Model{Gamma: 1, Alpha: 3}
	ka := solveKey("a", nil, 1, pm)
	kb := solveKey("b", nil, 1, pm)
	kc := solveKey("c", nil, 1, pm)

	c.Put(ka, &wire.ScheduleResponse{Algorithm: "a"})
	c.Put(kb, &wire.ScheduleResponse{Algorithm: "b"})
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}

	// Touch a so b becomes least recently used, then insert c: b evicts.
	if _, ok, _ := c.Get(ka); !ok {
		t.Fatal("a missing")
	}
	c.Put(kc, &wire.ScheduleResponse{Algorithm: "c"})
	if _, ok, _ := c.Get(kb); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok, _ := c.Get(ka); !ok || v.Algorithm != "a" {
		t.Fatal("a should have survived (it was promoted)")
	}
	if v, ok, _ := c.Get(kc); !ok || v.Algorithm != "c" {
		t.Fatal("c missing")
	}

	// Refreshing an existing key replaces the value without growing.
	c.Put(ka, &wire.ScheduleResponse{Algorithm: "a2"})
	if v, _, _ := c.Get(ka); v.Algorithm != "a2" {
		t.Fatal("refresh did not replace the value")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d after refresh, want 2", c.Len())
	}
}

func TestSolveCacheDisabled(t *testing.T) {
	c := newSolveCache(0)
	k := solveKey("a", nil, 1, power.Model{Alpha: 2, Gamma: 1})
	c.Put(k, &wire.ScheduleResponse{})
	if _, ok, _ := c.Get(k); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}
