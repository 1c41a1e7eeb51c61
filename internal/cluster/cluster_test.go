package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// newBackendServer spins up a real schedd over httptest.
func newBackendServer(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Close)
	return srv, hs
}

func newRouter(t *testing.T, backends ...string) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(Config{
		Backends:       backends,
		Timeout:        5 * time.Second,
		HealthInterval: 50 * time.Millisecond,
		HealthFailures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(rt.Close)
	return rt, hs
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func scheduleReq(t *testing.T) wire.ScheduleRequest {
	t.Helper()
	ts, err := task.New(
		[3]float64{0, 8, 10}, [3]float64{2, 14, 18}, [3]float64{4, 8, 16},
		[3]float64{6, 4, 14}, [3]float64{8, 10, 20}, [3]float64{12, 6, 22},
	)
	if err != nil {
		t.Fatal(err)
	}
	return wire.ScheduleRequest{
		Algorithm: "S^F2", Cores: 4,
		Model: wire.ModelJSON{Alpha: 3, P0: 0.05},
		Tasks: ts,
	}
}

func TestOneShotProxyAndFailover(t *testing.T) {
	_, b1 := newBackendServer(t)
	_, b2 := newBackendServer(t)
	_, rhs := newRouter(t, b1.URL, b2.URL)

	resp, body := postJSON(t, rhs.URL+"/v1/schedule", scheduleReq(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr wire.ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Energy <= 0 || len(sr.Segments) == 0 {
		t.Fatalf("degenerate response: %+v", sr)
	}

	// Kill one backend: requests must keep succeeding via the survivor.
	b1.Close()
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, rhs.URL+"/v1/schedule", scheduleReq(t))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("after kill, request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
}

func TestOneShotAllBackendsDown(t *testing.T) {
	_, b1 := newBackendServer(t)
	rt, rhs := newRouter(t, b1.URL)
	b1.Close()
	// Exhaust the breaker so the router fails fast, then check the
	// envelope shape of the router-origin error.
	resp, body := postJSON(t, rhs.URL+"/v1/schedule", scheduleReq(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" || !env.Error.Retryable {
		t.Fatalf("bad router error envelope: %s", body)
	}
	_ = rt
}

// TestRouterCompatErrorShape checks that the retired ?compat=1 query no
// longer selects the pre-envelope {"error":"..."} body on the router.
func TestRouterCompatErrorShape(t *testing.T) {
	_, b1 := newBackendServer(t)
	_, rhs := newRouter(t, b1.URL)
	resp, err := http.Get(rhs.URL + "/v1/sessions/nope/schedule?compat=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if d, ok := wire.DecodeError(body); !ok || d.Code != wire.CodeNotFound {
		t.Fatalf("compat=1 should still produce the envelope, got: %s", body)
	}
}

func TestBatchScatterGather(t *testing.T) {
	_, b1 := newBackendServer(t)
	_, b2 := newBackendServer(t)
	_, rhs := newRouter(t, b1.URL, b2.URL)

	var items []wire.ScheduleRequest
	for i := 0; i < 7; i++ {
		items = append(items, scheduleReq(t))
	}
	resp, body := postJSON(t, rhs.URL+"/v1/schedule/batch", map[string]any{"items": items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br wire.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 7 {
		t.Fatalf("got %d items, want 7", len(br.Items))
	}
	for i, item := range br.Items {
		if item.Index != i {
			t.Fatalf("item %d has index %d (indices must be remapped and sorted)", i, item.Index)
		}
		if item.Response == nil || item.Error != "" {
			t.Fatalf("item %d failed: %+v", i, item)
		}
	}
}

// A batch that schedd rejects, a router splitting it across two
// backends rejects with the same status and body.
func TestBatchDecodesStrictly(t *testing.T) {
	_, b1 := newBackendServer(t)
	_, b2 := newBackendServer(t)
	_, rhs := newRouter(t, b1.URL, b2.URL)
	b, err := json.Marshal(scheduleReq(t))
	if err != nil {
		t.Fatal(err)
	}
	item := string(b)
	bogus := strings.TrimSuffix(item, "}") + `,"bogus":1}`
	post := func(url, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(url+"/v1/schedule/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	for name, body := range map[string]string{
		"item field":     fmt.Sprintf(`{"items":[%s,%s]}`, item, bogus),
		"top-level":      fmt.Sprintf(`{"items":[%s,%s],"bogus":1}`, item, item),
		"trailing value": fmt.Sprintf(`{"items":[%s,%s]} {}`, item, item),
	} {
		wantStatus, want := post(b1.URL, body)
		status, got := post(rhs.URL, body)
		if wantStatus != http.StatusBadRequest || status != wantStatus || !bytes.Equal(got, want) {
			t.Errorf("%s: router %d %s, schedd %d %s", name, status, got, wantStatus, want)
		}
		if d, ok := wire.DecodeError(got); !ok || !strings.HasPrefix(d.Message, "invalid request body: ") {
			t.Errorf("%s: router error %s", name, got)
		}
	}
}

// sseFrame is one parsed client-side SSE frame.
type sseFrame struct {
	id    int64
	event string
	data  string
}

// collectSSE reads frames until the graceful terminator or stream end.
func collectSSE(t *testing.T, rc io.ReadCloser, frames chan<- sseFrame, done chan<- bool) {
	defer rc.Close()
	sc := bufio.NewScanner(rc)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var fr sseFrame
	graceful := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if fr.event != "" {
				frames <- fr
			}
			fr = sseFrame{}
		case strings.HasPrefix(line, ": stream closed"):
			graceful = true
		case strings.HasPrefix(line, "id:"):
			fr.id, _ = strconv.ParseInt(strings.TrimSpace(line[3:]), 10, 64)
		case strings.HasPrefix(line, "event:"):
			fr.event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			fr.data = strings.TrimSpace(line[5:])
		}
	}
	close(frames)
	done <- graceful
}

func TestSessionLifecycleThroughRouter(t *testing.T) {
	_, b1 := newBackendServer(t)
	_, b2 := newBackendServer(t)
	_, rhs := newRouter(t, b1.URL, b2.URL)

	resp, body := postJSON(t, rhs.URL+"/v1/sessions", wire.SessionCreateRequest{
		Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, SkipRatio: true,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var created wire.SessionCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}

	sresp, err := http.Get(rhs.URL + "/v1/sessions/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames := make(chan sseFrame, 256)
	gracefulCh := make(chan bool, 1)
	go collectSSE(t, sresp.Body, frames, gracefulCh)

	for b := 0; b < 3; b++ {
		at := float64(b * 2)
		ts := task.Set{
			{Release: at, Work: 1, Deadline: at + 20},
			{Release: at, Work: 0.5, Deadline: at + 20},
		}
		ts.Renumber()
		resp, body := postJSON(t, rhs.URL+"/v1/sessions/"+created.ID+"/tasks", wire.ArrivalRequest{At: at, Tasks: ts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("arrive %d: status %d: %s", b, resp.StatusCode, body)
		}
		var ar wire.ArrivalResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Admitted != 2 || ar.Shed != 0 {
			t.Fatalf("arrive %d: %+v", b, ar)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, rhs.URL+"/v1/sessions/"+created.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", dresp.StatusCode, dbody)
	}
	var final wire.SessionFinalResponse
	if err := json.Unmarshal(dbody, &final); err != nil {
		t.Fatal(err)
	}
	if final.Completed != 6 || len(final.Missed) != 0 || len(final.Violations) != 0 {
		t.Fatalf("final: %+v", final)
	}

	// The stream must end gracefully with gapless, strictly increasing ids.
	var last int64
	for fr := range frames {
		if fr.id != last+1 {
			t.Fatalf("sse id gap: got %d after %d", fr.id, last)
		}
		last = fr.id
	}
	if graceful := <-gracefulCh; !graceful {
		t.Fatal("stream did not end with the graceful terminator")
	}
	if last == 0 {
		t.Fatal("no SSE events observed")
	}

	// The routing entry is gone: a second delete 404s with the envelope.
	req, _ = http.NewRequest(http.MethodDelete, rhs.URL+"/v1/sessions/"+created.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: status %d", dresp.StatusCode)
	}
}

func TestSessionMigrationOnBackendDeath(t *testing.T) {
	_, b1 := newBackendServer(t)
	_, b2 := newBackendServer(t)
	rt, rhs := newRouter(t, b1.URL, b2.URL)

	const nsess = 4
	ids := make([]string, nsess)
	for i := range ids {
		resp, body := postJSON(t, rhs.URL+"/v1/sessions", wire.SessionCreateRequest{
			Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, SkipRatio: true,
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d: %s", i, resp.StatusCode, body)
		}
		var created wire.SessionCreateResponse
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		ids[i] = created.ID
	}

	streams := make([]chan sseFrame, nsess)
	graceful := make([]chan bool, nsess)
	for i, id := range ids {
		resp, err := http.Get(rhs.URL + "/v1/sessions/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = make(chan sseFrame, 1024)
		graceful[i] = make(chan bool, 1)
		go collectSSE(t, resp.Body, streams[i], graceful[i])
	}

	arrive := func(id string, batch int) {
		at := float64(batch * 2)
		ts := task.Set{
			{Release: at, Work: 1, Deadline: at + 30},
			{Release: at, Work: 0.5, Deadline: at + 30},
		}
		ts.Renumber()
		resp, body := postJSON(t, rhs.URL+"/v1/sessions/"+id+"/tasks", wire.ArrivalRequest{At: at, Tasks: ts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("arrive session=%s batch=%d: status %d: %s", id, batch, resp.StatusCode, body)
		}
	}
	for _, id := range ids {
		arrive(id, 0)
		arrive(id, 1)
	}

	// Hard-kill backend 1: connections break with no graceful close, the
	// router must migrate its sessions to backend 2 on the next touch.
	// (httptest's Close would wait politely for the router's open SSE
	// streams — a real SIGKILL does not, so simulate one.)
	b1.CloseClientConnections()
	b1.Listener.Close()

	for _, id := range ids {
		arrive(id, 2)
		arrive(id, 3)
	}

	for i, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, rhs.URL+"/v1/sessions/"+id, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dbody, _ := io.ReadAll(dresp.Body)
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("delete %d: status %d: %s", i, dresp.StatusCode, dbody)
		}
		var final wire.SessionFinalResponse
		if err := json.Unmarshal(dbody, &final); err != nil {
			t.Fatal(err)
		}
		if final.Completed != 8 || len(final.Missed) != 0 || len(final.Violations) != 0 {
			t.Fatalf("final %s: completed=%d missed=%v violations=%v",
				id, final.Completed, final.Missed, final.Violations)
		}
	}

	// Every stream ends gracefully and gapless despite the mid-run kill.
	for i := range ids {
		var last int64
		for fr := range streams[i] {
			if fr.id != last+1 {
				t.Fatalf("session %s: sse id gap: got %d after %d", ids[i], fr.id, last)
			}
			last = fr.id
		}
		if ok := <-graceful[i]; !ok {
			t.Fatalf("session %s: stream did not end gracefully", ids[i])
		}
	}

	// At least the sessions homed on the dead backend migrated.
	var buf bytes.Buffer
	rt.metrics.reg.Write(&buf)
	if !strings.Contains(buf.String(), "schedrouter_migrations_total") {
		t.Fatalf("missing migration metric:\n%s", buf.String())
	}
}

func TestRendezvousStability(t *testing.T) {
	mk := func(name string) *backend { return &backend{name: name} }
	a, b, c := mk("a:1"), mk("b:1"), mk("c:1")
	all := []*backend{a, b, c}
	moved := 0
	const n = 500
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("session-%d", i)
		before := rank(id, all)[0]
		after := rank(id, []*backend{a, b})[0] // c dies
		if before != c && before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d sessions not homed on the dead backend moved", moved)
	}
}

// TestRouterErrorEnvelopeEveryEndpoint drives an error through every
// v1 endpoint the router exposes and asserts the unified envelope, also
// under the retired ?compat=1 query — whether the error originates at
// the router itself or is relayed from a backend, clients see one shape.
func TestRouterErrorEnvelopeEveryEndpoint(t *testing.T) {
	_, b1 := newBackendServer(t)
	_, rhs := newRouter(t, b1.URL)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   wire.ErrorCode
	}{
		{"schedule", http.MethodPost, "/v1/schedule", "{not json", http.StatusBadRequest, wire.CodeBadRequest},
		{"schedule_batch", http.MethodPost, "/v1/schedule/batch", "{not json", http.StatusBadRequest, wire.CodeBadRequest},
		{"feasible", http.MethodPost, "/v1/feasible", "{not json", http.StatusBadRequest, wire.CodeBadRequest},
		{"algorithms", http.MethodDelete, "/v1/algorithms", "", http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed},
		{"session_create", http.MethodPost, "/v1/sessions", "{not json", http.StatusBadRequest, wire.CodeBadRequest},
		{"session_arrive", http.MethodPost, "/v1/sessions/nosuch/tasks", `{"at":0,"tasks":[]}`, http.StatusNotFound, wire.CodeNotFound},
		{"session_schedule", http.MethodGet, "/v1/sessions/nosuch/schedule", "", http.StatusNotFound, wire.CodeNotFound},
		{"session_events", http.MethodGet, "/v1/sessions/nosuch/events", "", http.StatusNotFound, wire.CodeNotFound},
		{"session_delete", http.MethodDelete, "/v1/sessions/nosuch", "", http.StatusNotFound, wire.CodeNotFound},
	}
	do := func(t *testing.T, method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, rhs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	for _, tc := range cases {
		for _, q := range []struct{ suffix, query string }{{"", ""}, {"_compat", "?compat=1"}} {
			t.Run(tc.name+q.suffix, func(t *testing.T) {
				status, body := do(t, tc.method, tc.path+q.query, tc.body)
				if status != tc.status {
					t.Fatalf("status = %d, want %d (%s)", status, tc.status, body)
				}
				var env wire.ErrorEnvelope
				if err := json.Unmarshal(body, &env); err != nil {
					t.Fatalf("not an envelope: %v\n%s", err, body)
				}
				if env.Version != wire.Version || env.Error.Code != tc.code || env.Error.Message == "" {
					t.Errorf("envelope = %+v, want version %d code %q", env, wire.Version, tc.code)
				}
				if want := wire.RetryableStatus(tc.status); env.Error.Retryable != want {
					t.Errorf("retryable = %t, want %t", env.Error.Retryable, want)
				}
			})
		}
	}
}
