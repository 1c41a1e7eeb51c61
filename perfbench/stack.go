package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// node is one loopback HTTP listener serving a handler in this process.
type node struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // always http.ErrServerClosed once close runs
	}()
	return n, nil
}

// close drops the listener and every open connection, then waits for
// the serve loop to return.
func (n *node) close() {
	_ = n.hs.Close() // only reports listener close errors; nothing to act on
	<-n.done
}

// stack is the serving stack under test: one or more schedd instances
// built with server.New, each on its own listener, and optionally the
// router (cluster.New) in front of them.
type stack struct {
	servers []*server.Server
	nodes   []*node // schedd listeners, same order as servers
	router  *cluster.Router
	front   *node // router listener; nil when unrouted
	dataDir string
}

// startStack brings up backends schedd instances and, when routed, a
// router over them. A non-empty dataDir journals the (single) schedd's
// sessions there.
func startStack(backends int, routed bool, dataDir string) (*stack, error) {
	st := &stack{dataDir: dataDir}
	for i := 0; i < backends; i++ {
		srv := server.New(server.Config{DataDir: dataDir})
		if _, err := srv.Recover(context.Background()); err != nil {
			srv.Close()
			st.close()
			return nil, fmt.Errorf("schedd recover: %w", err)
		}
		n, err := serve(srv.Handler())
		if err != nil {
			srv.Close()
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		st.nodes = append(st.nodes, n)
	}
	if routed {
		urls := make([]string, len(st.nodes))
		for i, n := range st.nodes {
			urls[i] = n.url
		}
		rt, err := cluster.New(cluster.Config{Backends: urls})
		if err != nil {
			st.close()
			return nil, err
		}
		st.router = rt
		if st.front, err = serve(rt.Handler()); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// url is the stack's front door: the router when routed, else schedd.
func (st *stack) url() string {
	if st.front != nil {
		return st.front.url
	}
	return st.nodes[0].url
}

// close tears the stack down front to back. Closing a schedd ends its
// sessions, which ends their event streams, so no handler outlives it.
func (st *stack) close() {
	if st.router != nil {
		st.router.Close()
	}
	if st.front != nil {
		st.front.close()
	}
	for i, srv := range st.servers {
		srv.Close()
		st.nodes[i].close()
	}
	if st.dataDir != "" {
		_ = os.RemoveAll(st.dataDir) // scratch under the work dir; a leftover is harmless
	}
}

// scrape reads /metrics of every schedd and of the router.
func (st *stack) scrape(client *http.Client) (backends []counters, router counters, err error) {
	for _, n := range st.nodes {
		c, err := scrape(client, n.url)
		if err != nil {
			return nil, nil, err
		}
		backends = append(backends, c)
	}
	if st.front != nil {
		if router, err = scrape(client, st.front.url); err != nil {
			return nil, nil, err
		}
	}
	return backends, router, nil
}

// setupRounds is how many times a run brings its stack to ready; setup_s
// is the median, which keeps one-off start-up jitter out of it.
const setupRounds = 3

// setUp brings a stack to ready rounds times with start (which includes
// the workload's warm-up), tearing down every stack but the last, and
// returns the median set-up time in seconds with the last stack. A GC
// before each round keeps earlier rounds' garbage out of the next one.
func setUp(rounds int, start func() (*stack, error)) (float64, *stack, error) {
	var st *stack
	times := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		s, err := start()
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	return median(times), st, nil
}

// newClient returns an HTTP client that opens at most conns connections
// per host, so the load never uses more connections than cores.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func closeClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}

// do sends one request and reads the whole reply. The latency runs from
// sending to the last byte of the body; decoding is left to the caller.
func do(client *http.Client, method, url string, body []byte) (time.Duration, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, nil, err
	}
	if resp.StatusCode/100 != 2 {
		if len(b) > 200 {
			b = b[:200]
		}
		return lat, nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return lat, b, nil
}

// parallel runs f(0..n-1) on conns goroutines and returns the first
// error.
func parallel(n, conns int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}
