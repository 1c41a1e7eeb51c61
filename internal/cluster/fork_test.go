package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// TestRefusedRestoreDoesNotFork migrates a session while its first
// choice for the restore, a journaled backend, is at its session limit.
// That backend refuses the restore with 429 and the router places the
// session on the next backend. Restarted over its data directory, the
// refusing backend must not bring back a second copy of the session,
// and the router keeps serving the session from its new home.
func TestRefusedRestoreDoesNotFork(t *testing.T) {
	_, home := newBackendServer(t)
	_, spare := newBackendServer(t)

	// The journaled backend sits behind a swappable front so that its
	// URL, the rendezvous key, survives the restart.
	dir := t.TempDir()
	var inner atomic.Value // http.Handler
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(full.Close)
	startFull := func(limit int) *server.Server {
		srv := server.New(server.Config{DataDir: dir, SessionLimit: limit})
		t.Cleanup(srv.Close)
		if _, err := srv.Recover(context.Background()); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		inner.Store(srv.Handler())
		return srv
	}
	srvFull := startFull(1)
	model := wire.ModelJSON{Alpha: 3, P0: 0.05}
	if resp, body := postJSON(t, full.URL+"/v1/sessions", wire.SessionCreateRequest{Cores: 2, Model: model, SkipRatio: true}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("filling the journaled backend: %d: %s", resp.StatusCode, body)
	}

	rt, rhs := newRouter(t, home.URL, full.URL, spare.URL)
	byURL := map[string]*backend{}
	for _, b := range rt.backends {
		byURL["http://"+b.name] = b
	}
	want := []*backend{byURL[home.URL], byURL[full.URL], byURL[spare.URL]}
	var id string
	for i := 0; id == ""; i++ {
		cand := fmt.Sprintf("fork-%d", i)
		if order := rank(cand, rt.backends); order[0] == want[0] && order[1] == want[1] {
			id = cand
		}
	}

	if resp, body := postJSON(t, rhs.URL+"/v1/sessions", wire.SessionCreateRequest{ID: id, Cores: 2, Model: model, SkipRatio: true}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
	arrive := func(at float64) {
		t.Helper()
		ts := task.Set{{Release: at, Work: 1, Deadline: at + 30}}
		ts.Renumber()
		if resp, body := postJSON(t, rhs.URL+"/v1/sessions/"+id+"/tasks", wire.ArrivalRequest{At: at, Tasks: ts}); resp.StatusCode != http.StatusOK {
			t.Fatalf("arrive at %g: %d: %s", at, resp.StatusCode, body)
		}
	}
	arrive(0)

	// Hard-kill the home backend; the next arrival migrates the session.
	home.CloseClientConnections()
	home.Listener.Close()
	arrive(2)
	if got, _, _, _ := rt.location(rt.lookup(id)); got != want[2] {
		t.Fatalf("session lives on %v after migration, want the spare backend", got)
	}

	srvFull.Close()
	startFull(0)
	scheduleStatus := func(base string) int {
		t.Helper()
		resp, err := http.Get(base + "/v1/sessions/" + id + "/schedule")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := scheduleStatus(full.URL); got != http.StatusNotFound {
		t.Fatalf("restarted backend answers %d for the refused session, want 404", got)
	}
	if got := scheduleStatus(rhs.URL); got != http.StatusOK {
		t.Fatalf("router answers %d for the session, want 200", got)
	}
	arrive(4)
}
