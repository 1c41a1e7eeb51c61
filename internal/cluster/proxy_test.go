package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend serves /readyz as healthy and everything else through h.
func fakeBackend(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Write([]byte(`{"status":"ready"}`))
			return
		}
		h(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs
}

// scrapeValue returns the value of one unlabeled sample of the router's
// /metrics text.
func scrapeValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s sample in /metrics", name)
	return 0
}

// TestProxyLatencyIncludesBody: the proxy latency histogram times the
// whole exchange, so a backend that sends its headers at once and its
// body 50 ms later is observed at 50 ms or more.
func TestProxyLatencyIncludesBody(t *testing.T) {
	const delay = 50 * time.Millisecond
	slow := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		time.Sleep(delay)
		w.Write([]byte(`{"ok":true}`))
	})
	_, rhs := newRouter(t, slow.URL)

	resp, body := postJSON(t, rhs.URL+"/v1/schedule", scheduleReq(t))
	if resp.StatusCode != http.StatusOK || string(body) != `{"ok":true}` {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if sum := scrapeValue(t, rhs.URL, "schedrouter_proxy_latency_ms_sum"); sum < float64(delay/time.Millisecond) {
		t.Fatalf("schedrouter_proxy_latency_ms_sum = %g, want >= %d: the body transfer was not timed",
			sum, delay/time.Millisecond)
	}
}

// TestProxyRetriesTruncatedBody: a backend that dies mid-body (fewer
// bytes than its Content-Length) is a failed attempt; the router
// retries on the next backend instead of relaying a truncated reply.
func TestProxyRetriesTruncatedBody(t *testing.T) {
	const good = `{"ok":true}`
	var truncated atomic.Int64
	bad := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		truncated.Add(1)
		w.Header().Set("Content-Length", "1000")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"ok":`))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // drop the connection mid-body
	})
	ok := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(good))
	})
	_, rhs := newRouter(t, bad.URL, ok.URL)

	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, rhs.URL+"/v1/schedule", scheduleReq(t))
		if resp.StatusCode != http.StatusOK || string(body) != good {
			t.Fatalf("request %d: status %d: %q", i, resp.StatusCode, body)
		}
	}
	if truncated.Load() == 0 {
		t.Fatal("the truncating backend was never tried")
	}
}

// TestProxyRelaysPooledReplies: concurrent one-shot requests whose
// backends send distinct large replies, of different lengths, each get
// exactly their own reply's bytes through the router. The router reads
// replies into pooled buffers; one handed back to the pool before its
// relay finished would mix replies here (and race under -race).
func TestProxyRelaysPooledReplies(t *testing.T) {
	reply := func(id string) []byte {
		return bytes.Repeat([]byte(id+";"), (200<<10)/len(id))
	}
	echo := func(w http.ResponseWriter, r *http.Request) {
		id, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		body := reply(string(id))
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}
	b1, b2 := fakeBackend(t, echo), fakeBackend(t, echo)
	_, rhs := newRouter(t, b1.URL, b2.URL)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				id := fmt.Sprintf("%d/%s", g, strings.Repeat("x", i))
				resp, err := http.Post(rhs.URL+"/v1/schedule", "application/json", strings.NewReader(id))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if want := reply(id); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("request %s: status %d, %d bytes, want the backend's %d", id, resp.StatusCode, len(got), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
