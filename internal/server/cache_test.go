package server

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"

	"repro/internal/schedule"
	"repro/internal/server/wire"
)

// bytesKey is the cache key of a request body.
func bytesKey(body string) cacheKey { return sha256.Sum256([]byte(body)) }

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
	ka, kb, kc := bytesKey("a"), bytesKey("b"), bytesKey("c")
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
	k := bytesKey("a")
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

// Concurrent Gets of a corrupted entry, which checksum outside the
// lock, never return its bytes, and exactly one evicts it and reports
// the corruption; a Put racing them keeps the value it stores, which no
// Get that read the damaged one may evict.
func TestSolveCacheConcurrentCorrupt(t *testing.T) {
	const getters = 8
	segs := make([]schedule.Segment, 20000) // a body that takes a while to checksum
	for i := range segs {
		segs[i] = schedule.Segment{Task: i, Start: float64(i), End: float64(i) + 0.5, Frequency: 0.5}
	}
	good, err := wire.EncodeSchedule(&wire.ScheduleResponse{Algorithm: "a", Cores: 1}, segs)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		c := newSolveCache(2)
		k := bytesKey("a")
		c.Put(k, good)
		c.Corrupt(k)
		var (
			wg        sync.WaitGroup
			mu        sync.Mutex
			corrupted int
		)
		start := make(chan struct{})
		for g := 0; g < getters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				v, ok, corrupt := c.Get(k)
				if (v != nil || ok) && v != good {
					t.Errorf("a Get returned damaged bytes (ok=%v)", ok)
				}
				if corrupt {
					mu.Lock()
					corrupted++
					mu.Unlock()
				}
			}()
		}
		put := round%2 == 1 // every other round, a Put races the Gets
		if put {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c.Put(k, good)
			}()
		}
		close(start)
		wg.Wait()
		v, ok, _ := c.Get(k)
		switch {
		case !put && (corrupted != 1 || ok || c.order.Len() != 0):
			t.Fatalf("round %d: %d Gets reported the corruption, entry left %v, want 1 and evicted", round, corrupted, ok)
		case put && (corrupted > 1 || !ok || v != good):
			t.Fatalf("round %d: %d Gets reported the corruption, and the value the racing Put stored is gone (%v)", round, corrupted, ok)
		}
	}
}

// TestSolveCacheContains: Contains sees an entry without promoting it,
// so the least recently used entry is still the one a Put evicts.
func TestSolveCacheContains(t *testing.T) {
	c := newSolveCache(2)
	ka, kb := bytesKey("a"), bytesKey("b")
	if c.Contains(ka) {
		t.Fatal("empty cache contains a")
	}
	c.Put(ka, encoded(t, "a"))
	c.Put(kb, encoded(t, "b"))
	if !c.Contains(ka) || !c.Contains(kb) {
		t.Fatal("Contains missed a stored entry")
	}
	c.Put(bytesKey("c"), encoded(t, "c"))
	if c.Contains(ka) || !c.Contains(kb) {
		t.Fatal("Contains promoted a: b was evicted instead")
	}
}

func TestSolveCacheDisabled(t *testing.T) {
	c := newSolveCache(0)
	k := bytesKey("a")
	c.Put(k, encoded(t, "a"))
	if _, ok, _ := c.Get(k); ok || c.Contains(k) {
		t.Fatal("disabled cache returned a hit")
	}
	if c.order.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}
