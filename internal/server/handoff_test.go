package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/dispatch"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// timing matches the fields that carry wall-clock measurements.
var timing = regexp.MustCompile(`"(latency_ms|elapsed_ms)":[-+0-9.eE]+`)

// sessionTranscript drives one journaled session on the server at base
// through trace and returns everything the session served, timing
// masked: every arrival reply and schedule read, the payload of every
// frame left in its log before the DELETE, the DELETE's final report
// and the whole SSE stream. It reports errors instead of failing, so
// that sessions can run in goroutines.
func sessionTranscript(base, dataDir, id string, trace []task.Arrival) (string, error) {
	do := func(method, path string, body any, want int) ([]byte, error) {
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != want {
			err = fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, b)
		}
		return b, err
	}
	if _, err := do(http.MethodPost, "/v1/sessions", wire.SessionCreateRequest{
		ID: id, Cores: 4, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, SkipRatio: true,
	}, http.StatusCreated); err != nil {
		return "", err
	}
	// The reply's headers come after the subscription, so the stream
	// holds every event.
	resp, err := http.Get(base + "/v1/sessions/" + id + "/events")
	if err != nil {
		return "", err
	}
	stream := make(chan []byte, 1)
	go func() {
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		stream <- b
	}()
	var out []byte
	for _, a := range trace {
		b, err := do(http.MethodPost, "/v1/sessions/"+id+"/tasks", wire.ArrivalRequest{At: a.At, Tasks: a.Tasks}, http.StatusOK)
		if err != nil {
			return "", err
		}
		out = append(append(out, b...), '\n')
		if b, err = do(http.MethodGet, "/v1/sessions/"+id+"/schedule", nil, http.StatusOK); err != nil {
			return "", err
		}
		out = append(append(out, b...), '\n')
	}
	frames, err := logPayloads(filepath.Join(dataDir, "sessions", id))
	if err != nil {
		return "", err
	}
	for _, p := range frames {
		out = append(append(out, p...), '\n')
	}
	b, err := do(http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusOK)
	if err != nil {
		return "", err
	}
	out = append(out, b...)
	select {
	case b := <-stream:
		out = append(out, b...)
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("session %s: the event stream did not end", id)
	}
	return string(timing.ReplaceAll(out, []byte(`"$1":0`))), nil
}

// logPayloads returns the record payloads of the log segments in dir,
// in order.
func logPayloads(dir string) ([][]byte, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out [][]byte
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for len(b) >= 8 {
			n := int(binary.LittleEndian.Uint32(b))
			if len(b) < 8+n {
				return nil, fmt.Errorf("%s: torn frame", name)
			}
			out = append(out, b[8:8+n])
			b = b[8+n:]
		}
	}
	return out, nil
}

// Sessions that run at once on one journaled server move schedules,
// solvers and their buffers between each other through the pools; each
// still serves bit for bit what it serves running alone. Run it under
// -race.
func TestConcurrentSessionsMatchSerial(t *testing.T) {
	const sessions = 4
	traces := make([][]task.Arrival, sessions)
	for i := range traces {
		tr, err := task.GenerateTrace(rand.New(rand.NewSource(int64(40+i))), task.ArrivalParams{
			Process: task.ArrivalPoisson, Batches: 40, Rate: 0.25, BatchLo: 1, BatchHi: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = tr
	}
	run := func(concurrent bool) []string {
		dir := t.TempDir()
		srv, hs := newTestServer(t, Config{DataDir: dir, SolveTimeout: time.Minute})
		if _, err := srv.Recover(context.Background()); err != nil {
			t.Fatal(err)
		}
		out := make([]string, sessions)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for i := range traces {
			one := func() {
				out[i], errs[i] = sessionTranscript(hs.URL, dir, fmt.Sprint("s", i), traces[i])
			}
			if !concurrent {
				one()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				one()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	serial, concurrent := run(false), run(true)
	for i := range serial {
		if concurrent[i] != serial[i] {
			t.Errorf("session %d served %d bytes running with others, %d alone, and they differ", i, len(concurrent[i]), len(serial[i]))
		}
	}
}

// overrun is a registered test algorithm that runs a registered
// algorithm, except that one call (at) finishes only after its deadline
// has passed, so runSolve has stopped waiting for it. It records the
// schedule that call returns, with a copy of its segments taken as it
// returns, and closes done once it has.
type overrun struct {
	at    int64
	calls atomic.Int64
	done  chan struct{}
	mu    sync.Mutex
	sched *schedule.Schedule
	segs  []schedule.Segment
}

// registerOverrun registers name as base with its at-th call overrunning.
func registerOverrun(name, base string, at int64) *overrun {
	o := &overrun{at: at}
	o.reset()
	check.Register(check.Entry{
		Name: name,
		Run: func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			e, _ := check.Lookup(base)
			s, energy, err := e.Run(ctx, ts, m, pm)
			if err != nil || o.calls.Add(1) != o.at {
				return s, energy, err
			}
			<-ctx.Done()
			time.Sleep(20 * time.Millisecond)
			o.mu.Lock()
			o.sched, o.segs = s, slices.Clone(s.Segments)
			close(o.done)
			o.mu.Unlock()
			return s, energy, nil
		},
	})
	return o
}

// reset starts the count of calls again, for a test run.
func (o *overrun) reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls.Store(0)
	o.done = make(chan struct{})
	o.sched, o.segs = nil, nil
}

// awaitOverrun waits, once the overrunning call has started, until it
// has returned its schedule: the solves after that are the ones that
// could recycle it, and without the wait they can all be served first.
func (o *overrun) awaitOverrun(t *testing.T) {
	if o.calls.Load() < o.at {
		return
	}
	o.mu.Lock()
	done := o.done
	o.mu.Unlock()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the solve that overran its deadline never returned")
	}
}

// kept fails t unless the overrunning call's schedule is as it was when
// the call returned.
func (o *overrun) kept(t *testing.T) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sched == nil {
		t.Fatalf("no solve was abandoned in %d calls", o.calls.Load())
	}
	if len(o.segs) == 0 || !slices.Equal(o.sched.Segments, o.segs) {
		t.Fatal("the abandoned solve's schedule changed after the server stopped waiting for it")
	}
}

var (
	// abandoned is ReplanDER whose 5th call overruns: a session replan.
	abandoned = registerOverrun("test-abandon", dispatch.DefaultAlgorithm, 5)
	// abandonedOneShot is S^F2 whose 3rd call overruns: a one-shot solve.
	abandonedOneShot = registerOverrun("test-abandon-oneshot", "S^F2", 3)
)

// A solve abandoned at SolveTimeout keeps the schedule it built: the
// session retries and goes on re-planning, recycling every plan it
// replaces, and the abandoned schedule's segments never change.
func TestAbandonedSolveKeepsItsSchedule(t *testing.T) {
	abandoned.reset()
	_, hs := newTestServer(t, Config{SolveTimeout: 200 * time.Millisecond})
	createSession(t, hs.URL, wire.SessionCreateRequest{
		ID: "abandon", Algorithm: "test-abandon", Cores: 4, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, SkipRatio: true,
	})
	tr, err := task.GenerateTrace(rand.New(rand.NewSource(9)), task.ArrivalParams{
		Process: task.ArrivalPoisson, Batches: 60, Rate: 0.25, BatchLo: 1, BatchHi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tr {
		if resp, ar := arrive(t, hs.URL, "abandon", a.At, a.Tasks); resp.StatusCode != http.StatusOK || ar.Shed > 0 {
			t.Fatalf("arrival at %g: status %d, %+v", a.At, resp.StatusCode, ar)
		}
		abandoned.awaitOverrun(t)
	}
	resp, final := deleteSession(t, hs.URL, "abandon")
	if resp.StatusCode != http.StatusOK || len(final.Violations) > 0 || final.Shed > 0 {
		t.Fatalf("delete: status %d, %d violations, %d shed", resp.StatusCode, len(final.Violations), final.Shed)
	}
	abandoned.kept(t)
}

// The one-shot twin: a POST /v1/schedule solve abandoned at
// SolveTimeout (its reply degrades to the fallback) keeps its schedule,
// while every solve after it recycles its own once the reply is
// encoded.
func TestAbandonedOneShotKeepsItsSchedule(t *testing.T) {
	abandonedOneShot.reset()
	_, hs := newTestServer(t, Config{SolveTimeout: 200 * time.Millisecond})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(40))
		resp, body := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "test-abandon-oneshot", ts, 8))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, body)
		}
		mustValidate(t, body, ts)
		abandonedOneShot.awaitOverrun(t)
	}
	abandonedOneShot.kept(t)
}

// Every registered scheduler hands over a schedule that nothing else
// holds (check.Runner): a schedule it returned stays as it was while it
// runs again, on the same and on other instances, and its caller
// recycles each of those schedules.
func TestRunnersHandOverTheirSchedule(t *testing.T) {
	pm := power.Unit(3, 0.05)
	rng := rand.New(rand.NewSource(12))
	instances := make([]task.Set, 4)
	for i := range instances {
		instances[i] = task.MustGenerate(rng, task.PaperDefaults(20+20*i))
	}
	for _, name := range check.Names() {
		if strings.HasPrefix(name, "test-") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			e, _ := check.Lookup(name)
			kept, _, err := e.RunVerified(context.Background(), instances[0], 4, pm)
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(kept.Segments)
			for round := 0; round < 3; round++ {
				for _, ts := range instances {
					s, _, err := e.RunVerified(context.Background(), ts, 4, pm)
					if err != nil {
						t.Fatal(err)
					}
					if s == kept || len(s.Segments) > 0 && len(kept.Segments) > 0 && &s.Segments[0] == &kept.Segments[0] {
						t.Fatal("a later run returned the kept schedule or its segments")
					}
					schedule.Recycle(s)
				}
			}
			if !slices.Equal(kept.Segments, want) {
				t.Error("a kept schedule changed while its scheduler ran on")
			}
		})
	}
}

// Cold solves that run at once on one server pass pooled solvers and
// recycled schedules between each other; every reply is still, byte for
// byte, the reply to the same request served alone. The cache holds one
// reply and no request repeats, so every request misses. Run it under
// -race.
func TestConcurrentColdSolvesMatchSerial(t *testing.T) {
	const workers, each = 4, 6
	algorithms := []string{"S^F2", "S^F1", "S^I2", "S^I1"}
	rng := rand.New(rand.NewSource(13))
	bodies := make([][]byte, workers*each)
	for i := range bodies {
		ts := task.MustGenerate(rng, task.PaperDefaults(20+rng.Intn(60)))
		bodies[i] = scheduleBody(t, algorithms[i%len(algorithms)], ts, 2+rng.Intn(15))
	}
	serve := func(h http.Handler, body []byte) (string, error) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), missMarker) {
			return "", fmt.Errorf("status %d, want a 200 cache miss: %.200s", w.Code, w.Body.Bytes())
		}
		return string(timing.ReplaceAll(w.Body.Bytes(), []byte(`"$1":0`))), nil
	}
	alone := make([]string, len(bodies))
	srv := New(Config{CacheSize: 1})
	t.Cleanup(srv.Close)
	for i, body := range bodies {
		var err error
		if alone[i], err = serve(srv.Handler(), body); err != nil {
			t.Fatal(err)
		}
	}
	srv = New(Config{CacheSize: 1})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	together := make([]string, len(bodies))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(bodies); i += workers {
				if together[i], errs[g] = serve(h, bodies[i]); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range bodies {
		if together[i] != alone[i] {
			t.Errorf("request %d served %d bytes among others, %d alone, and they differ", i, len(together[i]), len(alone[i]))
		}
	}
}
