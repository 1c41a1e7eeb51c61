package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// TestRouterEventsOKAfterUpstreamSubscribe holds the backend's events
// subscribe for 100 ms. A client that waits for the router's 200, then
// posts an arrival and deletes the session, must still receive exactly
// one final event and the clean terminator: the router may answer 200
// only once its upstream subscription is open.
func TestRouterEventsOKAfterUpstreamSubscribe(t *testing.T) {
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	inner := srv.Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events") {
			time.Sleep(100 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	_, rhs := newRouter(t, slow.URL)

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
	base := rhs.URL + "/v1/sessions/" + created.ID

	sresp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", sresp.StatusCode)
	}
	frames := make(chan sseFrame, 256)
	gracefulCh := make(chan bool, 1)
	go collectSSE(t, sresp.Body, frames, gracefulCh)

	ts := task.Set{{Release: 0, Work: 1, Deadline: 20}}
	ts.Renumber()
	if resp, body := postJSON(t, base+"/tasks", wire.ArrivalRequest{At: 0, Tasks: ts}); resp.StatusCode != http.StatusOK {
		t.Fatalf("arrive: status %d: %s", resp.StatusCode, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", dresp.StatusCode, dbody)
	}

	finals := 0
	for fr := range frames {
		if fr.event == "final" {
			finals++
		}
	}
	if graceful := <-gracefulCh; !graceful {
		t.Fatal("stream did not end with the graceful terminator")
	}
	if finals != 1 {
		t.Fatalf("stream carried %d final events, want exactly 1", finals)
	}
}
