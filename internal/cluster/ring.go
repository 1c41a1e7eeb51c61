package cluster

import "hash/fnv"

// Sessions shard by rendezvous (highest-random-weight) hashing: every
// (session, backend) pair gets a pseudo-random score and the session
// lives on the highest-scoring live backend. Unlike a ring with virtual
// nodes there is no token table to maintain, and when a backend dies
// only its own sessions move — every other session's top choice is
// unchanged. rank returns the live candidates ordered best-first so
// migration can walk the preference list when restores fail.
func rank(id string, candidates []*backend) []*backend {
	out := append([]*backend(nil), candidates...)
	score := func(b *backend) uint64 {
		h := fnv.New64a()
		h.Write([]byte(id))
		h.Write([]byte{'|'})
		h.Write([]byte(b.name))
		return h.Sum64()
	}
	// Insertion sort: candidate sets are a handful of backends.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && score(out[j]) > score(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
