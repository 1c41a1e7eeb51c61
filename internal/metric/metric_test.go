package metric

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var r Registry
	h := r.Histogram("x", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	// Bounds are inclusive upper edges: 0.5 and 1 land in le=1; 5 in
	// le=10; 50 in le=100; 500 in +Inf. Cumulative: 2, 3, 4, 5.
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE x histogram
x_bucket{le="1"} 2
x_bucket{le="10"} 3
x_bucket{le="100"} 4
x_bucket{le="+Inf"} 5
x_sum 556.5
x_count 5
`
	if buf.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestRegistryWritesFamiliesInOrder pins the exposition: each family's
// # TYPE line, then all of its samples, in registration order, with
// integers in decimal and floats as %g.
func TestRegistryWritesFamiliesInOrder(t *testing.T) {
	var r Registry
	var n atomic.Int64
	n.Add(1234567)
	r.Counter("c_total", n.Load)
	r.GaugeFloat("f", func() float64 { return 0.75 })
	r.GaugeFamily("g", func(emit Emit) {
		emit(Label("backend", "a:1"), 1)
		emit(Label("backend", `b"2`), 0)
	})
	r.CounterFamily("empty_total", func(Emit) {})
	r.Gauge("h", func() int64 { return -3 })
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE c_total counter
c_total 1234567
# TYPE f gauge
f 0.75
# TYPE g gauge
g{backend="a:1"} 1
g{backend="b\"2"} 0
# TYPE empty_total counter
# TYPE h gauge
h -3
`
	if buf.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestResponsesServe(t *testing.T) {
	var c Responses
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		status  int
		bytes   int
	}{
		{"implicit 200", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("hello")) }, 200, 5},
		{"explicit 429", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte("busy"))
		}, 429, 4},
		// net/http sends the first status; a later WriteHeader is
		// superfluous and must not be counted.
		{"first status wins", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNotFound)
			w.WriteHeader(http.StatusInternalServerError)
		}, 404, 0},
		{"write then status", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("x"))
			w.WriteHeader(http.StatusInternalServerError)
		}, 200, 1},
		{"flush passes through", func(w http.ResponseWriter, r *http.Request) {
			w.(http.Flusher).Flush()
		}, 200, 0},
	} {
		rec := httptest.NewRecorder()
		status, n := c.Serve(tc.handler, rec, httptest.NewRequest("GET", "/", nil))
		if status != tc.status || n != tc.bytes {
			t.Errorf("%s: got status %d, %d bytes; want %d, %d", tc.name, status, n, tc.status, tc.bytes)
		}
		if tc.name == "flush passes through" && !rec.Flushed {
			t.Errorf("%s: the underlying writer was not flushed", tc.name)
		}
	}
	var r Registry
	r.CounterFamily("r_total", c.Samples)
	var buf bytes.Buffer
	r.Write(&buf)
	want := "# TYPE r_total counter\nr_total{code=\"200\"} 3\nr_total{code=\"404\"} 1\nr_total{code=\"429\"} 1\n"
	if buf.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestConcurrentUpdatesAndWrite runs counter increments, histogram
// observations and counted responses while another goroutine scrapes;
// under -race it checks that every path the registry reads is
// synchronized, and at the end that no update was lost.
func TestConcurrentUpdatesAndWrite(t *testing.T) {
	var (
		r   Registry
		n   atomic.Int64
		c   Responses
		wg  sync.WaitGroup
		out bytes.Buffer
	)
	r.Counter("n_total", n.Load)
	r.CounterFamily("responses_total", c.Samples)
	h := r.Histogram("lat_ms", LatencyBucketsMS)

	const workers, perWorker = 4, 200
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNoContent) })
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				var buf bytes.Buffer
				if err := r.Write(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("GET", "/", nil)
			for j := 0; j < perWorker; j++ {
				n.Add(1)
				h.Observe(float64(j))
				c.Serve(ok, httptest.NewRecorder(), req)
			}
		}()
	}
	wg.Wait()
	close(done)
	<-scraped

	if err := r.Write(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"n_total 800\n",
		`responses_total{code="204"} 800` + "\n",
		`lat_ms_bucket{le="+Inf"} 800` + "\n",
		"lat_ms_count 800\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, out.String())
		}
	}
}
