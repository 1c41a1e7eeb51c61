package metric

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// LatencyBucketsMS are the upper bounds (in milliseconds) of request
// latency histograms; a final implicit +Inf bucket catches the rest.
var LatencyBucketsMS = []float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
}

// Histogram is a fixed-bucket counting histogram safe for concurrent
// observation. Bounds are inclusive upper edges; counts[len(bounds)] is
// the +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	n      atomic.Int64
	// sum is guarded by a mutex: at one observation per request
	// contention is negligible, and a mutex avoids a CAS loop.
	mu  sync.Mutex
	sum float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.mu.Lock()
	h.sum += v
	h.mu.Unlock()
	h.n.Add(1)
}

// appendSamples appends the cumulative _bucket lines, then _sum and
// _count.
func (h *Histogram) appendSamples(b []byte, name string) []byte {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b = appendSample(b, name+"_bucket", Label("le", fmt.Sprint(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	b = appendSample(b, name+"_bucket", Label("le", "+Inf"), cum)
	h.mu.Lock()
	sum := h.sum
	h.mu.Unlock()
	b = appendSample(b, name+"_sum", "", sum)
	return appendSample(b, name+"_count", "", h.n.Load())
}
