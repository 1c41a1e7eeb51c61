package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/dispatch"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    string
	event string
	data  dispatch.Event
}

// sseStream subscribes to a session's event stream and parses frames in
// the background until the server closes the stream.
type sseStream struct {
	events <-chan sseEvent
	clean  <-chan bool // closed-cleanly verdict, delivered once at EOF
	cancel func()
}

func openSSE(t *testing.T, url string) *sseStream {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("SSE subscribe status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	events := make(chan sseEvent, 256)
	clean := make(chan bool, 1)
	go func() {
		defer resp.Body.Close()
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		var cur sseEvent
		var sawClose bool
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				_ = json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data)
			case strings.HasPrefix(line, ": stream closed"):
				sawClose = true
			case line == "":
				if cur.event != "" {
					events <- cur
				}
				cur = sseEvent{}
			}
		}
		clean <- sawClose
	}()
	t.Cleanup(cancel)
	return &sseStream{events: events, clean: clean, cancel: cancel}
}

// collectUntilClosed drains the stream until the server closes it,
// failing the test on timeout.
func (s *sseStream) collectUntilClosed(t *testing.T) []sseEvent {
	t.Helper()
	var out []sseEvent
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-s.events:
			if !ok {
				select {
				case clean := <-s.clean:
					if !clean {
						t.Fatal("SSE stream ended without the terminal close comment")
					}
				case <-deadline:
					t.Fatal("timed out waiting for close verdict")
				}
				return out
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out waiting for SSE close; got %d events", len(out))
		}
	}
}

func createSession(t *testing.T, baseURL string, req wire.SessionCreateRequest) wire.SessionCreateResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, payload := postJSON(t, baseURL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, payload)
	}
	var out wire.SessionCreateResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("create: empty session id")
	}
	return out
}

func arrive(t *testing.T, baseURL, id string, at float64, ts task.Set) (*http.Response, wire.ArrivalResponse) {
	t.Helper()
	body, err := json.Marshal(wire.ArrivalRequest{At: at, Tasks: ts})
	if err != nil {
		t.Fatal(err)
	}
	resp, payload := postJSON(t, baseURL+"/v1/sessions/"+id+"/tasks", body)
	var ar wire.ArrivalResponse
	_ = json.Unmarshal(payload, &ar)
	return resp, ar
}

func deleteSession(t *testing.T, baseURL, id string) (*http.Response, wire.SessionFinalResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, baseURL+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wire.SessionFinalResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// TestSessionLifecycleHTTP walks the full streaming API: create, SSE
// subscribe, arrival batches, schedule read, DELETE with a final report
// that is re-validated client-side, and a clean stream teardown.
func TestSessionLifecycleHTTP(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	created := createSession(t, hs.URL, wire.SessionCreateRequest{
		Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05},
	})
	if created.Algorithm != dispatch.DefaultAlgorithm {
		t.Fatalf("default algorithm %q", created.Algorithm)
	}
	stream := openSSE(t, hs.URL+"/v1/sessions/"+created.ID+"/events")

	resp, ar := arrive(t, hs.URL, created.ID, 0, mustTasks(t, task.Task{Release: 0, Work: 2, Deadline: 8}, task.Task{Release: 0, Work: 1, Deadline: 5}))
	if resp.StatusCode != http.StatusOK || ar.Admitted != 2 || ar.Shed != 0 {
		t.Fatalf("arrival 1: status=%d %+v", resp.StatusCode, ar)
	}
	resp, ar = arrive(t, hs.URL, created.ID, 3, mustTasks(t, task.Task{Release: 3, Work: 2, Deadline: 12}))
	if resp.StatusCode != http.StatusOK || ar.Admitted != 1 {
		t.Fatalf("arrival 2: status=%d %+v", resp.StatusCode, ar)
	}
	if ar.Stats.Tasks != 3 || ar.Stats.Replans == 0 {
		t.Fatalf("stats after arrivals: %+v", ar.Stats)
	}

	// Schedule read: committed prefix before the clock, plan after.
	sr, payload := postGet(t, hs.URL+"/v1/sessions/"+created.ID+"/schedule")
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("schedule status %d: %s", sr.StatusCode, payload)
	}
	var sched wire.SessionScheduleResponse
	if err := json.Unmarshal(payload, &sched); err != nil {
		t.Fatal(err)
	}
	if sched.ID != created.ID || sched.Stats.Clock != 3 {
		t.Fatalf("schedule meta: %+v", sched.Stats)
	}
	for _, seg := range sched.Committed {
		if seg.End > sched.Stats.Clock+1e-9 {
			t.Fatalf("committed segment past the clock: %+v", seg)
		}
	}
	for _, seg := range sched.Planned {
		if seg.Start < sched.Stats.Clock-1e-9 {
			t.Fatalf("planned segment before the clock: %+v", seg)
		}
	}

	dresp, final := deleteSession(t, hs.URL, created.ID)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	if final.Completed != 3 || len(final.Missed) != 0 || len(final.Violations) != 0 {
		t.Fatalf("final report: %+v", final)
	}
	if final.CompetitiveRatio < 1-1e-9 {
		t.Fatalf("competitive ratio %g < 1", final.CompetitiveRatio)
	}
	// Client-side re-validation of the realized schedule, like schedload.
	rs := schedule.New(final.Tasks, final.Cores)
	for _, seg := range final.Segments {
		rs.Add(schedule.Segment{Task: seg.Task, Core: seg.Core, Start: seg.Start, End: seg.End, Frequency: seg.Frequency})
	}
	pm := power.Model{Gamma: 1, Alpha: 3, P0: 0.05}
	if v := check.Validate(rs, final.Tasks, final.Cores, pm); len(v) > 0 {
		t.Fatalf("realized schedule invalid: %v", v[0])
	}
	if final.Sim == nil || final.Sim.Preemptions < 0 || len(final.Sim.Utilization) != 2 {
		t.Fatalf("sim report: %+v", final.Sim)
	}

	// The DELETE closed the session; the stream must end cleanly having
	// delivered replan, commit, complete and final events in seq order.
	events := stream.collectUntilClosed(t)
	counts := map[string]int{}
	lastSeq := int64(-1)
	for _, ev := range events {
		counts[ev.event]++
		if ev.data.Seq <= lastSeq {
			t.Fatalf("event seq not monotonic: %d after %d", ev.data.Seq, lastSeq)
		}
		lastSeq = ev.data.Seq
	}
	if counts["replan"] == 0 || counts["commit"] == 0 || counts["complete"] != 3 || counts["final"] != 1 {
		t.Fatalf("event counts: %v", counts)
	}

	// The session is gone: further arrivals 404.
	resp, _ = arrive(t, hs.URL, created.ID, 5, mustTasks(t, task.Task{Release: 5, Work: 1, Deadline: 9}))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("arrival after delete = %d, want 404", resp.StatusCode)
	}
	_ = srv
}

// A session finished before any arrival still answers its DELETE with
// a segment array, empty, in a JSON body ending in a newline, as
// encoding/json writes an empty slice.
func TestSessionDeleteBeforeArrivals(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	created := createSession(t, hs.URL, wire.SessionCreateRequest{Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}})
	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/sessions/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	if !bytes.HasSuffix(body, []byte(`"tasks":[],"segments":[]}`+"\n")) {
		t.Fatalf("final reply: %s", body)
	}
}

// TestSessionBacklogShedding checks the load-shedding contract: a batch
// that cannot be admitted at all answers 429 with Retry-After, the shed
// is visible in the response body, the metrics, and as a shed event.
func TestSessionBacklogShedding(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	created := createSession(t, hs.URL, wire.SessionCreateRequest{
		Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, Backlog: 2,
		// Debounce keeps the backlog full: nothing runs, nothing drains.
		DebounceMS: 60_000, SkipRatio: true,
	})
	stream := openSSE(t, hs.URL+"/v1/sessions/"+created.ID+"/events")

	resp, ar := arrive(t, hs.URL, created.ID, 0, mustTasks(t,
		task.Task{Release: 0, Work: 1, Deadline: 100},
		task.Task{Release: 0, Work: 1, Deadline: 100},
	))
	if resp.StatusCode != http.StatusOK || ar.Admitted != 2 {
		t.Fatalf("fill: status=%d %+v", resp.StatusCode, ar)
	}

	resp, ar = arrive(t, hs.URL, created.ID, 0, mustTasks(t,
		task.Task{Release: 0, Work: 1, Deadline: 100},
		task.Task{Release: 0, Work: 1, Deadline: 100},
		task.Task{Release: 0, Work: 1, Deadline: 100},
	))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if ar.Admitted != 0 || ar.Shed != 3 {
		t.Fatalf("overflow body: %+v", ar)
	}
	if got := srv.metrics.sessionSheds.Load(); got != 3 {
		t.Fatalf("shed metric %d, want 3", got)
	}

	dresp, final := deleteSession(t, hs.URL, created.ID)
	if dresp.StatusCode != http.StatusOK || final.Shed != 3 {
		t.Fatalf("final: status=%d %+v", dresp.StatusCode, final)
	}
	var shedEvents int
	for _, ev := range stream.collectUntilClosed(t) {
		if ev.event == "shed" {
			shedEvents++
			if ev.data.Reason != "backlog" || ev.data.Count != 3 {
				t.Fatalf("shed event: %+v", ev.data)
			}
		}
	}
	if shedEvents != 1 {
		t.Fatalf("shed events = %d, want 1", shedEvents)
	}
}

// TestSessionErrorPaths covers the failure contract of a live
// session's routes; TestSessionOpenErrorTable covers opening one.
func TestSessionErrorPaths(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	// Unknown session: 404 on every entity route.
	if resp, _ := postGet(t, hs.URL+"/v1/sessions/nope/schedule"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown schedule = %d, want 404", resp.StatusCode)
	}
	if resp, _ := arrive(t, hs.URL, "nope", 0, mustTasks(t, task.Task{Release: 0, Work: 1, Deadline: 5})); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown arrive = %d, want 404", resp.StatusCode)
	}

	created := createSession(t, hs.URL, wire.SessionCreateRequest{Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, SkipRatio: true})
	// Dead-on-arrival task: 400 for the whole batch, nothing admitted.
	resp, ar := arrive(t, hs.URL, created.ID, 10, mustTasks(t, task.Task{Release: 0, Work: 1, Deadline: 5}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad arrival = %d, want 400", resp.StatusCode)
	}
	if ar.Admitted != 0 {
		t.Fatalf("bad arrival admitted %d", ar.Admitted)
	}
	// Empty batch: 400.
	body, _ := json.Marshal(wire.ArrivalRequest{At: 0})
	if resp, _ := postJSON(t, hs.URL+"/v1/sessions/"+created.ID+"/tasks", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", resp.StatusCode)
	}
}

// TestSessionLimit429 checks the manager's session cap surfaces as 429.
func TestSessionLimit429(t *testing.T) {
	_, hs := newTestServer(t, Config{SessionLimit: 1})
	createSession(t, hs.URL, wire.SessionCreateRequest{Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, SkipRatio: true})
	body, _ := json.Marshal(wire.SessionCreateRequest{Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}})
	resp, _ := postJSON(t, hs.URL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit create = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestSessionDrainOnShutdown checks the graceful-drain contract: live
// sessions run to their horizon, final events reach every subscriber,
// streams close cleanly, new session work is rejected, and nothing
// leaks.
func TestSessionDrainOnShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, hs := newTestServer(t, Config{})

	const n = 3
	streams := make([]*sseStream, n)
	for i := 0; i < n; i++ {
		created := createSession(t, hs.URL, wire.SessionCreateRequest{
			Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, SkipRatio: true,
		})
		streams[i] = openSSE(t, hs.URL+"/v1/sessions/"+created.ID+"/events")
		resp, ar := arrive(t, hs.URL, created.ID, 0, mustTasks(t,
			task.Task{Release: 0, Work: 2, Deadline: 20},
			task.Task{Release: 0, Work: 1, Deadline: 10},
		))
		if resp.StatusCode != http.StatusOK || ar.Admitted != 2 {
			t.Fatalf("session %d arrival: status=%d %+v", i, resp.StatusCode, ar)
		}
	}

	// Mirror ListenAndServe's shutdown sequence.
	srv.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.sessions.Drain(ctx)

	// Every subscriber got the final event and a clean close.
	for i, st := range streams {
		events := st.collectUntilClosed(t)
		var sawFinal bool
		for _, ev := range events {
			if ev.event == "final" {
				sawFinal = true
			}
		}
		if !sawFinal {
			t.Fatalf("stream %d: no final event among %d events", i, len(events))
		}
	}

	// New session work is rejected while draining.
	body, _ := json.Marshal(wire.SessionCreateRequest{Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}})
	if resp, _ := postJSON(t, hs.URL+"/v1/sessions", body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining = %d, want 503", resp.StatusCode)
	}

	hs.Close()
	if g := waitGoroutines(baseline + 3); g > baseline+3 {
		t.Fatalf("goroutines after drain = %d, baseline %d: leak", g, baseline)
	}
}

// TestSessionConcurrentHTTPSoak hammers the session API from many
// goroutines under -race: concurrent creates, arrivals and SSE readers,
// then concurrent DELETEs; every final report must be deadline-clean.
func TestSessionConcurrentHTTPSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	_, hs := newTestServer(t, Config{})
	const sessions = 4
	const batchesPer = 6

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			created := createSession(t, hs.URL, wire.SessionCreateRequest{
				Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05},
				DebounceMS: float64(i % 3), SkipRatio: true,
			})
			stream := openSSE(t, hs.URL+"/v1/sessions/"+created.ID+"/events")
			for b := 0; b < batchesPer; b++ {
				at := float64(b * 3)
				resp, ar := arrive(t, hs.URL, created.ID, at, mustTasks(t,
					// Deadlines stay past the last arrival instant (15): with
					// a debounce window, slow runs coalesce batches and the
					// admission instant jumps to the newest arrival, which
					// legitimately sheds pending tasks whose window closed.
					task.Task{Release: at, Work: 1 + float64(i), Deadline: at + 20 + float64(i*5)},
					task.Task{Release: at, Work: 0.5, Deadline: at + 20},
				))
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("session %d batch %d: status %d", i, b, resp.StatusCode)
					return
				}
				if ar.Shed != 0 {
					errs <- fmt.Errorf("session %d batch %d: unexpected shed %d", i, b, ar.Shed)
					return
				}
			}
			dresp, final := deleteSession(t, hs.URL, created.ID)
			if dresp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("session %d delete: status %d", i, dresp.StatusCode)
				return
			}
			if len(final.Missed) != 0 || len(final.Violations) != 0 {
				errs <- fmt.Errorf("session %d final: missed=%v violations=%v", i, final.Missed, final.Violations)
				return
			}
			if final.Completed != batchesPer*2 {
				errs <- fmt.Errorf("session %d completed %d, want %d", i, final.Completed, batchesPer*2)
				return
			}
			stream.collectUntilClosed(t)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// postGet is postJSON's GET sibling.
func postGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// mustTasks builds a renumbered set from literals.
func mustTasks(t *testing.T, tasks ...task.Task) task.Set {
	t.Helper()
	s := task.Set(tasks)
	s.Renumber()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionRepliesMatchJSON: the GET schedule, GET snapshot and
// DELETE replies, which splice the committed prefix in, are byte for
// byte what encoding/json writes for the response types built from the
// session's own copies, and carry that length as Content-Length. The
// sessions are an empty one, one whose final schedule is its committed
// prefix (no admitted task shed), and one whose final schedule must be
// renumbered (a task shed on expiry inside the debounce window).
func TestSessionRepliesMatchJSON(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	serve := func(method, path string, body any, want int) *httptest.ResponseRecorder {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, rd))
		if w.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, w.Code, want, w.Body.Bytes())
		}
		return w
	}
	same := func(name string, w *httptest.ResponseRecorder, v any) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s:\ngot  %.400s\nwant %.400s", name, w.Body.Bytes(), want.Bytes())
		}
		if n := w.Header().Get("Content-Length"); n != fmt.Sprint(want.Len()) {
			t.Errorf("%s: Content-Length %q, body %d bytes", name, n, want.Len())
		}
	}
	pm := wire.ModelJSON{Alpha: 3, P0: 0.05}
	for _, tc := range []struct {
		name     string
		debounce float64
		arrivals []wire.ArrivalRequest
		shed     bool
	}{
		{name: "empty"},
		{name: "shared", arrivals: []wire.ArrivalRequest{
			{At: 0, Tasks: task.Set{{Release: 0, Work: 2, Deadline: 6}, {Release: 0, Work: 1, Deadline: 4}}},
			{At: 3, Tasks: task.Set{{Release: 3, Work: 2, Deadline: 10}}},
			{At: 5, Tasks: task.Set{{Release: 5, Work: 1.5, Deadline: 9}, {Release: 6, Work: 0.5, Deadline: 12}}},
		}},
		// The debounce window outlasts the test: the flush before each
		// read runs the batch, and the first arrival's window closed
		// before the second's, so it is shed.
		{name: "renumbered", debounce: 60000, shed: true, arrivals: []wire.ArrivalRequest{
			{At: 0, Tasks: task.Set{{Release: 0, Work: 2, Deadline: 6}}},
			{At: 1, Tasks: task.Set{{Release: 1, Work: 0.5, Deadline: 2}}},
			{At: 4, Tasks: task.Set{{Release: 4, Work: 1, Deadline: 9}}},
		}},
	} {
		id := "replies-" + tc.name
		serve(http.MethodPost, "/v1/sessions", wire.SessionCreateRequest{ID: id, Cores: 2, Model: pm, DebounceMS: tc.debounce}, http.StatusCreated)
		sess := srv.sessions.Get(id)
		for i, a := range tc.arrivals {
			serve(http.MethodPost, "/v1/sessions/"+id+"/tasks", a, http.StatusOK)
			if i == 0 && tc.debounce > 0 {
				// The first batch is planned before the next arrives.
				if err := sess.Flush(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}

		w := serve(http.MethodGet, "/v1/sessions/"+id+"/schedule", nil, http.StatusOK)
		same(tc.name+" schedule", w, wire.SessionScheduleResponse{
			Version: wire.Version, ID: id, Algorithm: sess.Algorithm(), Cores: sess.Cores(), Stats: sess.Stats(),
			Committed: wire.Segments(&schedule.Schedule{Segments: slices.Clone(sess.Committed())}),
			Planned:   wire.Segments(&schedule.Schedule{Segments: sess.Plan()}),
		})
		if st := sess.Stats(); (st.Shed > 0) != tc.shed || (tc.name != "empty") != (len(sess.Committed()) > 0) {
			t.Fatalf("%s: %d shed, %d committed", tc.name, st.Shed, len(sess.Committed()))
		}

		w = serve(http.MethodGet, "/v1/sessions/"+id+"/snapshot", nil, http.StatusOK)
		snap, err := sess.Snapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		snap.Committed = slices.Clone(snap.Committed)
		same(tc.name+" snapshot", w, wire.SessionSnapshotResponse{Version: wire.Version, ID: id, Snapshot: snap})

		w = serve(http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusOK)
		f := sess.Final()
		if segs := f.Schedule.Segments; len(segs) > 0 && (&segs[0] == &sess.Committed()[0]) == tc.shed {
			t.Fatalf("%s: final schedule shares the committed prefix: %v", tc.name, !tc.shed)
		}
		want := wire.SessionFinalResponse{
			Version: wire.Version, ID: id, Algorithm: sess.Algorithm(), Cores: sess.Cores(),
			RealizedEnergy: f.RealizedEnergy, OptimalEnergy: f.OptimalEnergy, CompetitiveRatio: f.CompetitiveRatio,
			OptError: f.OptError, Replans: f.Replans, Commits: f.Commits, Completed: f.Completed, Shed: f.Shed,
			Missed: f.Missed, Horizon: f.Horizon, Violations: f.Violations, Tasks: f.Tasks,
			Segments: wire.Segments(f.Schedule),
		}
		if f.Sim != nil {
			want.Sim = wire.ProfileReport(*f.Sim)
		}
		same(tc.name+" final", w, want)
	}
}
