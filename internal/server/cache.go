package server

import (
	"container/list"
	"crypto/sha256"
	"hash/crc32"
	"sync"

	"repro/internal/server/wire"
)

// cacheKey is the SHA-256 of a schedule request's JSON bytes as the
// client sent them. Identical bytes always decode to the identical
// request, so one key is one solve; two requests that mean the same but
// differ in any byte (whitespace, field order, -0 for 0) are separate
// entries.
type cacheKey [sha256.Size]byte

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

// Contains reports whether key has an entry, without promoting it or
// checking its integrity.
func (c *solveCache) Contains(key cacheKey) bool {
	if c.capacity <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

// Get returns the cached outcome for key, promoting it to most recent.
// A hit whose integrity checksum no longer matches is a miss, so the
// caller re-solves instead of shipping a damaged schedule; the one Get
// that evicts the entry reports it corrupted. The checksum runs outside
// the lock, so concurrent lookups do not wait behind it.
func (c *solveCache) Get(key cacheKey) (val *wire.EncodedSchedule, ok, corrupted bool) {
	if c.capacity <= 0 {
		return nil, false, false
	}
	c.mu.Lock()
	el, found := c.byKey[key]
	if !found {
		c.mu.Unlock()
		return nil, false, false
	}
	e := el.Value.(*cacheEntry)
	val, sum := e.val, e.sum
	c.order.MoveToFront(el)
	c.mu.Unlock()
	if crc32.Checksum(val.Body, castagnoli) == sum {
		return val, true, false
	}
	// Evict the entry only if it still holds the damaged value: a Put
	// since may have replaced it, or another Get evicted it.
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.byKey[key]; found && el.Value.(*cacheEntry).val == val {
		c.order.Remove(el)
		delete(c.byKey, key)
		return nil, false, true
	}
	return nil, false, false
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
