package freelist

import (
	"runtime"
	"testing"
)

// A List keeps up to GOMAXPROCS idle values through collections, which
// empty a sync.Pool, drops what it has no room for, and is empty once
// they are taken.
func TestListKeepsValues(t *testing.T) {
	l := New[int]()
	n := runtime.GOMAXPROCS(0)
	kept := map[*int]bool{}
	for i := 0; i <= n; i++ {
		v := new(int)
		if i < n {
			kept[v] = true
		}
		l.Put(v)
	}
	runtime.GC()
	runtime.GC()
	for i := 0; i < n; i++ {
		if v := l.Get(); !kept[v] {
			t.Fatalf("Get %d returned %p, not one of the first %d values put", i, v, n)
		}
	}
	if v := l.Get(); v != nil {
		t.Fatalf("Get from an empty list returned %p", v)
	}
}
