package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"math"
	"sync"

	"repro/internal/power"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// cacheKey is a canonical hash of one (instance, algorithm, power-model)
// triple. Two requests collide exactly when they describe the same solve:
// same algorithm name, same core count, bit-identical model coefficients,
// and bit-identical task triples in the same order.
type cacheKey [sha256.Size]byte

// solveKey canonicalizes the solve inputs into a cacheKey. Floats are
// hashed by their IEEE-754 bit patterns, so -0 and 0 (and any two values
// that print alike but differ in the last ulp) are distinct — the cache
// never conflates instances that could solve differently.
func solveKey(algorithm string, ts task.Set, cores int, pm power.Model) cacheKey {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	h.Write([]byte(algorithm))
	h.Write([]byte{0}) // terminate the name so "A"+cores can't alias "Ac"+ores
	put(uint64(cores))
	putF(pm.Gamma)
	putF(pm.Alpha)
	putF(pm.P0)
	put(uint64(len(ts)))
	for _, t := range ts {
		putF(t.Release)
		putF(t.Work)
		putF(t.Deadline)
	}
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// solveCache is a mutex-guarded LRU over completed solve outcomes, each
// held as its encoded reply. Only successful, verified solves are
// inserted, so a hit can be served without re-running the guardrail.
type solveCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *cacheEntry
	byKey    map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	val *wire.EncodedSchedule
	// sum is a CRC32C over val.Body, verified on every hit so a
	// corrupted entry (bit rot, or the cache_corrupt fault injection
	// point) is detected and dropped instead of served.
	sum uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// newSolveCache returns a cache holding up to capacity outcomes; a
// capacity ≤ 0 disables caching (every Get misses, Put is a no-op).
func newSolveCache(capacity int) *solveCache {
	return &solveCache{
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[cacheKey]*list.Element),
	}
}

// Get returns the cached outcome for key, promoting it to most recent.
// A hit whose integrity checksum no longer matches is evicted and
// reported as corrupted (and a miss), so the caller re-solves instead of
// shipping a damaged schedule.
func (c *solveCache) Get(key cacheKey) (val *wire.EncodedSchedule, ok, corrupted bool) {
	if c.capacity <= 0 {
		return nil, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.byKey[key]
	if !found {
		return nil, false, false
	}
	e := el.Value.(*cacheEntry)
	if crc32.Checksum(e.val.Body, castagnoli) != e.sum {
		c.order.Remove(el)
		delete(c.byKey, key)
		return nil, false, true
	}
	c.order.MoveToFront(el)
	return e.val, true, false
}

// Put inserts (or refreshes) the outcome for key, evicting the least
// recently used entry when over capacity. The stored bytes are shared
// between hits, so callers must treat them as immutable.
func (c *solveCache) Put(key cacheKey, val *wire.EncodedSchedule) {
	if c.capacity <= 0 {
		return
	}
	sum := crc32.Checksum(val.Body, castagnoli)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		e.val, e.sum = val, sum
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, val: val, sum: sum})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// Corrupt damages the stored entry for key without updating its
// checksum — the realization of the cache_corrupt fault-injection
// point. The entry's bytes are replaced with a damaged copy (never
// mutated in place: replies in flight share the old bytes), so the next
// Get must detect the mismatch. Returns whether an entry was present to
// corrupt.
func (c *solveCache) Corrupt(key cacheKey) bool {
	if c.capacity <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return false
	}
	e := el.Value.(*cacheEntry)
	bad := *e.val
	bad.Body = append([]byte(nil), e.val.Body...)
	bad.Body[len(bad.Body)/2] ^= 1 // one flipped bit: a silently wrong digit
	e.val = &bad
	return true
}
