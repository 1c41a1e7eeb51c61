// Package freelist keeps idle buffers for reuse across garbage
// collections.
//
// A sync.Pool drops what sat idle through two collections, so a buffer
// that is needed once in many collections (a session's checkpoint, the
// audit of a whole session at its end, a cold solve that follows a
// quiet spell) is allocated again each time it is needed. A List keeps
// up to its capacity of idle values until they are taken.
package freelist

import "runtime"

// List holds idle values of type T. The zero value holds none; use New.
type List[T any] struct{ idle chan *T }

// New returns a List that keeps up to GOMAXPROCS idle values: as many
// as can be in use at once by code that does not block while it holds
// one, so a steady state never allocates, and a burst of more holders
// leaves no more than that behind.
func New[T any]() List[T] {
	return List[T]{idle: make(chan *T, runtime.GOMAXPROCS(0))}
}

// Get returns an idle value, or nil when there is none.
func (l List[T]) Get() *T {
	select {
	case v := <-l.idle:
		return v
	default:
		return nil
	}
}

// Put keeps v for a later Get, unless the list is full. The caller must
// not use v afterwards.
func (l List[T]) Put(v *T) {
	select {
	case l.idle <- v:
	default:
	}
}
