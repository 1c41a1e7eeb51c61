// Package metric is the one place that knows the Prometheus text
// exposition format. A Registry holds the counters, gauges, labelled
// families and histograms of one serving tier (schedd or schedrouter)
// and writes them in registration order, or serves them as a scrape
// under the format's Content-Type; Responses is the request middleware
// both tiers use to count responses by status code.
package metric

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
)

// ContentType names the text exposition format Write produces.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Emit writes one sample of a family: labels is the text between the
// braces (see Label), "" for none.
type Emit func(labels string, v int64)

// Label renders one name="value" label pair.
func Label(name, value string) string { return name + "=" + strconv.Quote(value) }

// Registry is an ordered list of metric families. Register every family
// before the first Write; Write may then run concurrently with the
// updates the families read.
type Registry struct {
	families []family
}

type family struct {
	name, kind string
	samples    func(b []byte, name string) []byte
}

func (r *Registry) add(name, kind string, samples func([]byte, string) []byte) {
	r.families = append(r.families, family{name, kind, samples})
}

// Counter registers a counter whose value v reads at scrape time.
func (r *Registry) Counter(name string, v func() int64) {
	r.CounterFamily(name, func(emit Emit) { emit("", v()) })
}

// Gauge registers an integer gauge sampled at scrape time.
func (r *Registry) Gauge(name string, v func() int64) {
	r.GaugeFamily(name, func(emit Emit) { emit("", v()) })
}

// GaugeFloat registers a float gauge sampled at scrape time.
func (r *Registry) GaugeFloat(name string, v func() float64) {
	r.add(name, "gauge", func(b []byte, name string) []byte { return appendSample(b, name, "", v()) })
}

// CounterFamily registers a labelled counter family; each runs at
// scrape time and emits the samples in the order they are written.
func (r *Registry) CounterFamily(name string, each func(Emit)) { r.add(name, "counter", ints(each)) }

// GaugeFamily registers a labelled gauge family, like CounterFamily.
func (r *Registry) GaugeFamily(name string, each func(Emit)) { r.add(name, "gauge", ints(each)) }

func ints(each func(Emit)) func([]byte, string) []byte {
	return func(b []byte, name string) []byte {
		each(func(labels string, v int64) { b = appendSample(b, name, labels, v) })
		return b
	}
}

// Histogram registers a new histogram with the given inclusive
// upper-edge bucket bounds (sorted ascending) and returns it.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.add(name, "histogram", h.appendSamples)
	return h
}

// Write emits every family in registration order: its # TYPE line,
// then all of its samples.
func (r *Registry) Write(w io.Writer) error {
	var b []byte
	for _, f := range r.families {
		b = fmt.Appendf(b, "# TYPE %s %s\n", f.name, f.kind)
		b = f.samples(b, f.name)
	}
	_, err := w.Write(b)
	return err
}

// ServeHTTP serves a scrape: Write's output, as ContentType.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	_ = r.Write(w) // a failed write means the client has gone
}

// appendSample appends one "name{labels} value" line; value is an int64
// (printed in decimal) or a float64 (printed as %g).
func appendSample(b []byte, name, labels string, value any) []byte {
	if labels != "" {
		return fmt.Appendf(b, "%s{%s} %v\n", name, labels, value)
	}
	return fmt.Appendf(b, "%s %v\n", name, value)
}
