package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// errOverload is returned by gate.acquire when the admission queue is
// already at capacity; handlers translate it into 429 + Retry-After.
var errOverload = errors.New("server: admission queue full")

// gate is the bounded worker pool: at most workers solves run
// concurrently, at most queue requests wait for a slot, and everything
// beyond that is rejected immediately so overload produces fast 429s
// instead of unbounded goroutine pileup.
type gate struct {
	slots  chan struct{} // capacity = workers; holding a token = running
	queued atomic.Int64  // requests currently blocked waiting for a token
	queue  int64         // maximum concurrent waiters
}

func newGate(workers, queue int) *gate {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &gate{slots: make(chan struct{}, workers), queue: int64(queue)}
}

// acquire obtains a worker slot, waiting in the admission queue if all
// workers are busy. It fails with errOverload when the queue is full and
// with ctx.Err() when the request dies while queued.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.queued.Add(1) > g.queue {
		g.queued.Add(-1)
		return errOverload
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a worker slot.
func (g *gate) release() { <-g.slots }

// depth reports how many requests are waiting for a worker right now.
func (g *gate) depth() int64 { return g.queued.Load() }
