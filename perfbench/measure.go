package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p90 needs at least 100 samples, a median at least 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile of samples and whether
// at least minTail samples lie strictly beyond its rank.
func percentile(samples []float64, q float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minTail
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is a reading of the process's CPU time (user+sys, getrusage) and
// of its cumulative heap allocation (runtime.MemStats.TotalAlloc). The
// client, router and schedd all run in this process, so the deltas cover
// the whole stack.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) only fails for an invalid "who" argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: m.TotalAlloc,
	}
}

// perOp spreads the CPU time and allocation between two readings over
// ops operations: CPU milliseconds and allocated KiB per operation.
func perOp(before, after usage, ops int) (cpuMS, allocKB float64) {
	if ops <= 0 {
		return 0, 0
	}
	cpuMS = ms(after.cpu-before.cpu) / float64(ops)
	allocKB = float64(after.alloc-before.alloc) / 1024 / float64(ops)
	return cpuMS, allocKB
}

// counters is one scrape of a /metrics endpoint: every sample line keyed
// by its full name, labels included.
type counters map[string]float64

// parseMetrics reads the text exposition format both schedd and the
// router serve: "name value" or "name{labels} value" lines, with blank
// and '#' comment lines ignored.
func parseMetrics(r io.Reader) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses one /metrics endpoint.
func scrape(client *http.Client, base string) (counters, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s: HTTP %d", base, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// span is one timed call into a layer, made by the traced run from this
// package around a public function of that layer. Spans of one operation
// share Op; Parent names the layer whose work the span is part of.
type span struct {
	Op      int64   `json:"op"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans and per-operation counts in memory until the run
// ends. Safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[int64]map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[int64]map[string]float64)}
}

// record adds a span of duration d that started at start.
func (t *tracer) record(op int64, name, parent string, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Op: op, Name: name, Parent: parent,
		StartUS: float64(start.Sub(t.t0)) / float64(time.Microsecond),
		DurUS:   float64(d) / float64(time.Microsecond),
	})
}

// timed runs f as a span and returns its duration.
func (t *tracer) timed(op int64, name, parent string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.record(op, name, parent, start, d)
	return d
}

// count adds v to the per-operation count name.
func (t *tracer) count(op int64, name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.counts[op]
	if m == nil {
		m = make(map[string]float64)
		t.counts[op] = m
	}
	m[name] += v
}

// perOp sums, for every operation, span durations in ms (keyed by the
// span name plus "_ms") and counts by name.
func (t *tracer) perOp() map[int64]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]map[string]float64)
	get := func(op int64) map[string]float64 {
		m := out[op]
		if m == nil {
			m = make(map[string]float64)
			out[op] = m
		}
		return m
	}
	for _, s := range t.spans {
		get(s.Op)[s.Name+"_ms"] += s.DurUS / 1e3
	}
	for op, cs := range t.counts {
		for name, v := range cs {
			get(op)[name] += v
		}
	}
	return out
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianOver returns, for each name, the median over ops of that
// operation's value (0 where an operation has none).
func medianOver(per map[int64]map[string]float64, ops []int64, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, name := range names {
		vals := make([]float64, 0, len(ops))
		for _, op := range ops {
			vals = append(vals, per[op][name])
		}
		out[name] = median(vals)
	}
	return out
}
