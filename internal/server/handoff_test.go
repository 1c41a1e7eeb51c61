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
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
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

// abandonAt is the test-abandon call that overruns its deadline.
const abandonAt = 5

// abandoned is the schedule a test-abandon solve finished after its
// deadline, with a copy of its segments taken when it finished; done
// is closed once that solve has recorded them.
var abandoned struct {
	calls atomic.Int64
	done  chan struct{}
	mu    sync.Mutex
	sched *schedule.Schedule
	segs  []schedule.Segment
}

func init() {
	// test-abandon is ReplanDER, except that one call (abandonAt)
	// finishes only after its deadline has passed, so runSolve has
	// stopped waiting for it.
	abandoned.done = make(chan struct{})
	check.Register(check.Entry{
		Name: "test-abandon",
		Run: func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
			e, _ := check.Lookup(dispatch.DefaultAlgorithm)
			s, energy, err := e.Run(ctx, ts, m, pm)
			if err != nil || abandoned.calls.Add(1) != abandonAt {
				return s, energy, err
			}
			<-ctx.Done()
			time.Sleep(20 * time.Millisecond)
			abandoned.mu.Lock()
			abandoned.sched, abandoned.segs = s, slices.Clone(s.Segments)
			abandoned.mu.Unlock()
			close(abandoned.done)
			return s, energy, nil
		},
	})
}

// A solve abandoned at SolveTimeout keeps the schedule it built: the
// session retries and goes on re-planning, recycling every plan it
// replaces, and the abandoned schedule's segments never change.
func TestAbandonedSolveKeepsItsSchedule(t *testing.T) {
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
	waited := false
	for _, a := range tr {
		if resp, ar := arrive(t, hs.URL, "abandon", a.At, a.Tasks); resp.StatusCode != http.StatusOK || ar.Shed > 0 {
			t.Fatalf("arrival at %g: status %d, %+v", a.At, resp.StatusCode, ar)
		}
		// The arrivals after the overrunning solve has returned its
		// schedule are the ones that could recycle it; without this
		// wait they can all be served before it returns.
		if !waited && abandoned.calls.Load() >= abandonAt {
			select {
			case <-abandoned.done:
			case <-time.After(10 * time.Second):
				t.Fatal("the solve that overran its deadline never returned")
			}
			waited = true
		}
	}
	resp, final := deleteSession(t, hs.URL, "abandon")
	if resp.StatusCode != http.StatusOK || len(final.Violations) > 0 || final.Shed > 0 {
		t.Fatalf("delete: status %d, %d violations, %d shed", resp.StatusCode, len(final.Violations), final.Shed)
	}
	abandoned.mu.Lock()
	defer abandoned.mu.Unlock()
	if abandoned.sched == nil {
		t.Fatalf("no solve was abandoned in %d calls", abandoned.calls.Load())
	}
	if len(abandoned.segs) == 0 || !slices.Equal(abandoned.sched.Segments, abandoned.segs) {
		t.Fatal("the abandoned solve's schedule changed after the session stopped waiting for it")
	}
}
