package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// testSnapshot captures a small live session for restore requests.
func testSnapshot(t *testing.T) *dispatch.Snapshot {
	t.Helper()
	pm, err := wire.ModelJSON{Alpha: 3, P0: 0.05}.Model()
	if err != nil {
		t.Fatal(err)
	}
	s, err := dispatch.New(dispatch.Config{Cores: 2, Model: pm, SkipRatio: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, _, err := s.Arrive(ctx, 0, mustTasks(t,
		task.Task{Release: 0, Work: 2, Deadline: 8},
		task.Task{Release: 0, Work: 1, Deadline: 5},
	)); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// logDirs lists the session log directories under a data dir.
func logDirs(t *testing.T, dataDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dataDir, "sessions"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{}
	for _, e := range entries {
		dirs = append(dirs, e.Name())
	}
	sort.Strings(dirs)
	return dirs
}

// TestSessionOpenErrorTable pins the refusals of the two endpoints that
// open a session, POST /v1/sessions and POST /v1/sessions/restore, with
// and without a journal: each bad request gets its exact status and
// error code, a retryable one carries Retry-After, and a journaled
// request that fails leaves no log behind for a restart to bring back.
func TestSessionOpenErrorTable(t *testing.T) {
	const (
		create  = "/v1/sessions"
		restore = "/v1/sessions/restore"
	)
	model := wire.ModelJSON{Alpha: 3, P0: 0.05}
	snap := testSnapshot(t)
	badSnap := *snap
	badSnap.Cores = 0
	unknownSnap := *snap
	unknownSnap.Algorithm = "no-such"
	// A 1-task table whose only committed segment names another task:
	// a session restored from it used to panic at its DELETE.
	foreignSeg := func(id int) *dispatch.Snapshot {
		bad := *snap
		bad.Tasks = snap.Tasks[:1]
		bad.Committed = []schedule.Segment{{Task: id, Core: 0, Start: 0, End: 1, Frequency: 1}}
		return &bad
	}
	longID := strings.Repeat("x", 65)
	manyCores := *snap
	manyCores.Cores = MaxCores + 1
	tooManyCores := "cores must be <= 1024, have 1025"

	type row struct {
		name string
		path string
		body any
		// limit is the server's SessionLimit (2 when zero); a session
		// with ID "live" is open before the request.
		limit int
		// prepare runs just before the request.
		prepare func(*Server)
		status  int
		code    wire.ErrorCode
		// message, when set, is the exact error message.
		message string
	}
	drain := func(s *Server) { s.draining.Store(true) }
	closeManager := func(s *Server) { s.sessions.Close() }
	rows := []row{
		{name: "create/zero cores", path: create,
			body:   wire.SessionCreateRequest{Cores: 0, Model: model},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "create/cores above the ceiling", path: create,
			body:   wire.SessionCreateRequest{Cores: MaxCores + 1, Model: model},
			status: http.StatusBadRequest, code: wire.CodeBadRequest, message: tooManyCores},
		{name: "create/bad model", path: create,
			body:   wire.SessionCreateRequest{Cores: 2, Model: wire.ModelJSON{Alpha: 1}},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "create/negative debounce", path: create,
			body:   wire.SessionCreateRequest{Cores: 2, Model: model, DebounceMS: -1},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "create/negative backlog", path: create,
			body:   wire.SessionCreateRequest{Cores: 2, Model: model, Backlog: -1},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "create/unknown algorithm", path: create,
			body:   wire.SessionCreateRequest{Algorithm: "no-such", Cores: 2, Model: model},
			status: http.StatusNotFound, code: wire.CodeUnknownAlgorithm},
		{name: "create/duplicate id", path: create,
			body:   wire.SessionCreateRequest{ID: "live", Cores: 2, Model: model},
			status: http.StatusConflict, code: wire.CodeDuplicateSession},
		{name: "create/duplicate id at the limit", path: create, limit: 1,
			body:   wire.SessionCreateRequest{ID: "live", Cores: 2, Model: model},
			status: http.StatusConflict, code: wire.CodeDuplicateSession},
		{name: "create/id with a dot", path: create,
			body:   wire.SessionCreateRequest{ID: "a.b", Cores: 2, Model: model},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "create/id of 65 characters", path: create,
			body:   wire.SessionCreateRequest{ID: longID, Cores: 2, Model: model},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "create/session limit", path: create, limit: 1,
			body:   wire.SessionCreateRequest{ID: "next", Cores: 2, Model: model},
			status: http.StatusTooManyRequests, code: wire.CodeOverloaded},
		{name: "create/draining", path: create, prepare: drain,
			body:   wire.SessionCreateRequest{Cores: 2, Model: model},
			status: http.StatusServiceUnavailable, code: wire.CodeDraining},
		{name: "create/manager closed", path: create, prepare: closeManager,
			body:   wire.SessionCreateRequest{ID: "next", Cores: 2, Model: model},
			status: http.StatusServiceUnavailable, code: wire.CodeDraining},

		{name: "restore/missing id", path: restore,
			body:   wire.SessionRestoreRequest{Snapshot: snap},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "restore/missing snapshot", path: restore,
			body:   wire.SessionRestoreRequest{ID: "next"},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "restore/negative debounce", path: restore,
			body:   wire.SessionRestoreRequest{ID: "next", Snapshot: snap, DebounceMS: -1},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "restore/negative backlog", path: restore,
			body:   wire.SessionRestoreRequest{ID: "next", Snapshot: snap, Backlog: -1},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "restore/unknown algorithm", path: restore,
			body:   wire.SessionRestoreRequest{ID: "next", Snapshot: &unknownSnap},
			status: http.StatusNotFound, code: wire.CodeUnknownAlgorithm},
		{name: "restore/duplicate id", path: restore,
			body:   wire.SessionRestoreRequest{ID: "live", Snapshot: snap},
			status: http.StatusConflict, code: wire.CodeDuplicateSession},
		{name: "restore/duplicate id at the limit", path: restore, limit: 1,
			body:   wire.SessionRestoreRequest{ID: "live", Snapshot: snap},
			status: http.StatusConflict, code: wire.CodeDuplicateSession},
		{name: "restore/id with a dot", path: restore,
			body:   wire.SessionRestoreRequest{ID: "a.b", Snapshot: snap},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "restore/id of 65 characters", path: restore,
			body:   wire.SessionRestoreRequest{ID: longID, Snapshot: snap},
			status: http.StatusBadRequest, code: wire.CodeBadRequest},
		{name: "restore/bad snapshot", path: restore,
			body:   wire.SessionRestoreRequest{ID: "next", Snapshot: &badSnap},
			status: http.StatusUnprocessableEntity, code: wire.CodeUnprocessable},
		{name: "restore/cores above the ceiling", path: restore,
			body:   wire.SessionRestoreRequest{ID: "next", Snapshot: &manyCores},
			status: http.StatusBadRequest, code: wire.CodeBadRequest, message: tooManyCores},
		{name: "restore/segment of task 7", path: restore,
			body:   wire.SessionRestoreRequest{ID: "next", Snapshot: foreignSeg(7)},
			status: http.StatusUnprocessableEntity, code: wire.CodeUnprocessable},
		{name: "restore/segment of task -1", path: restore,
			body:   wire.SessionRestoreRequest{ID: "next", Snapshot: foreignSeg(-1)},
			status: http.StatusUnprocessableEntity, code: wire.CodeUnprocessable},
		{name: "restore/session limit", path: restore, limit: 1,
			body:   wire.SessionRestoreRequest{ID: "next", Snapshot: snap},
			status: http.StatusTooManyRequests, code: wire.CodeOverloaded},
		{name: "restore/draining", path: restore, prepare: drain,
			body:   wire.SessionRestoreRequest{ID: "next", Snapshot: snap},
			status: http.StatusServiceUnavailable, code: wire.CodeDraining},
		{name: "restore/manager closed", path: restore, prepare: closeManager,
			body:   wire.SessionRestoreRequest{ID: "next", Snapshot: snap},
			status: http.StatusServiceUnavailable, code: wire.CodeDraining},
	}

	for _, journaled := range []bool{false, true} {
		mode := "memory"
		if journaled {
			mode = "journaled"
		}
		for _, tc := range rows {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				cfg := Config{SessionLimit: tc.limit}
				if cfg.SessionLimit == 0 {
					cfg.SessionLimit = 2
				}
				if journaled {
					cfg.DataDir = t.TempDir()
				}
				srv, hs := newTestServer(t, cfg)
				if _, err := srv.Recover(context.Background()); err != nil {
					t.Fatal(err)
				}
				createSession(t, hs.URL, wire.SessionCreateRequest{ID: "live", Cores: 2, Model: model, SkipRatio: true})
				var before []string
				if journaled {
					before = logDirs(t, cfg.DataDir)
				}
				if tc.prepare != nil {
					tc.prepare(srv)
				}

				body, err := json.Marshal(tc.body)
				if err != nil {
					t.Fatal(err)
				}
				resp, payload := postJSON(t, hs.URL+tc.path, body)
				if resp.StatusCode != tc.status {
					t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, payload)
				}
				checkEnvelope(t, payload, tc.status, tc.code)
				if tc.message != "" {
					var env wire.ErrorEnvelope
					if err := json.Unmarshal(payload, &env); err != nil || env.Error.Message != tc.message {
						t.Errorf("error message %q (%v), want %q", env.Error.Message, err, tc.message)
					}
				}
				retry := tc.status == http.StatusTooManyRequests || tc.status == http.StatusServiceUnavailable
				if got := resp.Header.Get("Retry-After") != ""; got != retry {
					t.Errorf("Retry-After present = %t, want %t", got, retry)
				}
				if journaled {
					if after := logDirs(t, cfg.DataDir); !reflect.DeepEqual(after, before) {
						t.Errorf("session logs %v after the refusal, want %v", after, before)
					}
				}
			})
		}
	}
}

// TestRefusedRestoreStaysGoneAfterRestart restores onto a journaled
// schedd that is at its session limit, so the restore is refused with
// 429, then restarts over the same data directory. Only the session
// that was live comes back: a refused restore that returned after a
// restart would fork the session the router placed elsewhere.
func TestRefusedRestoreStaysGoneAfterRestart(t *testing.T) {
	dir := t.TempDir()
	srvA := New(Config{DataDir: dir, SessionLimit: 1})
	if _, err := srvA.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	hsA := httptest.NewServer(srvA.Handler())
	live := createSession(t, hsA.URL, wire.SessionCreateRequest{Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}})

	body, err := json.Marshal(wire.SessionRestoreRequest{ID: "refused", Snapshot: testSnapshot(t)})
	if err != nil {
		t.Fatal(err)
	}
	if resp, payload := postJSON(t, hsA.URL+"/v1/sessions/restore", body); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("restore at the session limit = %d, want 429: %s", resp.StatusCode, payload)
	}
	hsA.Close()
	srvA.Close()

	_, hsB, rep := newJournaledServer(t, dir)
	if rep.Recovered != 1 || rep.Failed != 0 {
		t.Fatalf("restart recovered %+v, want only the live session", rep)
	}
	if resp, payload := postGet(t, hsB.URL+"/v1/sessions/refused/schedule"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused session after restart = %d, want 404: %s", resp.StatusCode, payload)
	}
	if resp, payload := postGet(t, hsB.URL+"/v1/sessions/"+live.ID+"/schedule"); resp.StatusCode != http.StatusOK {
		t.Fatalf("live session after restart = %d, want 200: %s", resp.StatusCode, payload)
	}
}
