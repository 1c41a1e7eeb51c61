package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// BenchmarkColdSolve serves S^F2 requests for paper-default n=100
// instances on 16 cores through Server.Handler: decode, solve, the
// guardrail audit with its execution profile, encode and cache fill.
// The requests cycle through more instances than the default 1024-entry
// LRU cache holds, so every one is a miss.
func BenchmarkColdSolve(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()

	bodies := paperBodies(b, 1024+64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(bodies[i%len(bodies)])))
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
		if !w.miss() {
			b.Fatal("reply served from the cache")
		}
	}
}

// hotInstances is how many cached instances the hit path cycles over.
const hotInstances = 16

// BenchmarkHotSolve serves cache hits for paper-default n=100 instances
// on 16 cores through Server.Handler: the body read, its SHA-256, the
// cache lookup with its checksum, and the reply write, with no decode.
func BenchmarkHotSolve(b *testing.B) {
	h, bodies := warmServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(bodies[i%len(bodies)])))
		if w.code != http.StatusOK || w.miss() {
			b.Fatalf("status %d, miss %v", w.code, w.miss())
		}
	}
}

// TestHotSolveAllocs caps the allocations of one cache hit through
// Server.Handler, the request and writer the test builds included, at
// the measured count: a hit must not start decoding the request again.
// Skipped under -race, which adds its own.
func TestHotSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const ceiling = 32
	h, bodies := warmServer(t)
	body := bytes.NewReader(nil)
	i := 0
	got := testing.AllocsPerRun(50, func() {
		body.Reset(bodies[i%len(bodies)])
		i++
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", body))
		if w.code != http.StatusOK || w.miss() {
			t.Fatalf("status %d, miss %v", w.code, w.miss())
		}
	})
	if got > ceiling {
		t.Errorf("a cache hit allocates %v times, ceiling %v", got, ceiling)
	}
}

// warmServer returns the handler of a server whose cache holds the
// replies to hotInstances paper-default requests, and those requests.
func warmServer(tb testing.TB) (http.Handler, [][]byte) {
	srv := New(Config{})
	tb.Cleanup(srv.Close)
	h := srv.Handler()
	bodies := paperBodies(tb, hotInstances)
	for _, body := range bodies {
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if w.code != http.StatusOK || !w.miss() {
			tb.Fatalf("warm-up: status %d, miss %v", w.code, w.miss())
		}
	}
	return h, bodies
}

// paperBodies returns n S^F2 request bodies for paper-default n=100
// instances on 16 cores.
func paperBodies(tb testing.TB, n int) [][]byte {
	rng := rand.New(rand.NewSource(19))
	bodies := make([][]byte, n)
	for i := range bodies {
		ts, err := task.Generate(rng, task.PaperDefaults(100))
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i], err = json.Marshal(wire.ScheduleRequest{
			Algorithm: "S^F2", Cores: 16, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, Tasks: ts,
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return bodies
}

// missMarker is what a reply that missed the cache says.
var missMarker = []byte(`"cached":false`)

// missWriter is a ResponseWriter that keeps the status and the head of
// the body, where a schedule reply says whether it was cached, and drops
// the rest, as a connection write does: buffering the reply, as
// httptest.ResponseRecorder does, would charge the handler for growing
// the buffer.
type missWriter struct {
	header http.Header
	code   int
	head   [256]byte
	n      int
	total  int // bytes written
}

func (w *missWriter) Header() http.Header { return w.header }

func (w *missWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *missWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += copy(w.head[w.n:], p)
	w.total += len(p)
	return len(p), nil
}

// miss reports whether the reply says it missed the cache.
func (w *missWriter) miss() bool { return bytes.Contains(w.head[:w.n], missMarker) }

// TestColdSolveAllocBytes caps the bytes one warmed cold S^F2 solve
// (a paper-default n=100 instance on 16 cores, about 600 KB of reply)
// allocates through Server.Handler at 1.15× its reply body: the reply,
// which the cache keeps, is almost all of it, as the solver's stages
// and the schedule come from pools and the schedule goes back once the
// reply is encoded. The bound is on the median of 21 solves, each
// measured alone after 20 that fill the pools: a solve that finds a
// pool emptied by a collection (sync.Pool drops what sat idle through
// two) refills it, and that is not the steady state. Skipped under
// -race, which adds its own allocations.
func TestColdSolveAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const warm, measured, afterGC = 20, 21, 3
	srv := New(Config{})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	bodies := paperBodies(t, warm+measured)
	serve := func(body []byte) int {
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if w.code != http.StatusOK || !w.miss() {
			t.Fatalf("status %d, miss %v", w.code, w.miss())
		}
		return w.total
	}
	for _, body := range bodies[:warm] {
		serve(body)
	}
	ratios := make([]float64, measured)
	var before, after runtime.MemStats
	for i, body := range bodies[warm:] {
		runtime.ReadMemStats(&before)
		reply := serve(body)
		runtime.ReadMemStats(&after)
		ratios[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(reply)
	}
	slices.Sort(ratios)
	got := ratios[measured/2]
	t.Logf("a warmed cold solve allocates %.3f× its reply (median; least %.3f×, most %.3f×)", got, ratios[0], ratios[measured-1])
	if got > 1.15 {
		t.Errorf("a warmed cold solve allocates %.3f× its reply, ceiling 1.15", got)
	}
	for i, body := range paperBodies(t, warm+measured+afterGC)[warm+measured:] {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		reply := serve(body)
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64(reply)
		t.Logf("a cold solve after two collections allocates %.3f× its reply", got)
		if got > 1.15 {
			t.Errorf("cold solve %d after two collections allocates %.3f× its reply, ceiling 1.15", i, got)
		}
	}
}

// TestSessionArrivalAllocBytes caps the mean bytes one session arrival
// allocates on a journaled schedd, through Server.Handler, at about
// 1.15× the highest of the measured 36–40 KB. The trace has perfbench's
// session-journaled shape: Poisson batches of 1–3 tasks at rate 0.25 on
// 4 cores, which keeps about 20 tasks live. The mean is taken over arrivals 101–200 of
// one session, after 100 that fill its buffers; it includes the one
// checkpoint the session writes in that window. Skipped under -race,
// which adds its own allocations.
func TestSessionArrivalAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const (
		warm, measured = 100, 100
		ceiling        = 45 << 10
	)
	srv := New(Config{DataDir: t.TempDir()})
	t.Cleanup(srv.Close)
	if _, err := srv.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	serve := func(method, path string, body []byte, want int) {
		w := &missWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if w.code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, w.code, want, w.head[:w.n])
		}
	}
	create, err := json.Marshal(wire.SessionCreateRequest{
		ID: "alloc", Cores: 4, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, SkipRatio: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := task.GenerateTrace(rand.New(rand.NewSource(7)), task.ArrivalParams{
		Process: task.ArrivalPoisson, Batches: warm + measured, Rate: 0.25, BatchLo: 1, BatchHi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(trace))
	for i, a := range trace {
		if bodies[i], err = json.Marshal(wire.ArrivalRequest{At: a.At, Tasks: a.Tasks}); err != nil {
			t.Fatal(err)
		}
	}

	serve(http.MethodPost, "/v1/sessions", create, http.StatusCreated)
	for _, body := range bodies[:warm] {
		serve(http.MethodPost, "/v1/sessions/alloc/tasks", body, http.StatusOK)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range bodies[warm:] {
		serve(http.MethodPost, "/v1/sessions/alloc/tasks", body, http.StatusOK)
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / measured
	t.Logf("a journaled session arrival allocates %d bytes", got)
	if got > ceiling {
		t.Errorf("a journaled session arrival allocates %d bytes, ceiling %d", got, ceiling)
	}
}

// BenchmarkSessionReplies serves the three session replies that carry
// the whole committed prefix, GET …/schedule, GET …/snapshot and
// DELETE, through Server.Handler, for sessions restored from aged
// snapshots: a session at virtual time age that has completed age
// tasks, one per unit of time, each in one committed segment on 2
// cores (as internal/dispatch's agedSnapshot builds them). The router
// takes a snapshot after every routed arrival, so the snapshot's cost
// at age is what each arrival pays there. Each DELETE is of a session
// restored untimed just before it; the reports skip the clairvoyant
// optimum, as perfbench's sessions do. body_B is the reply's length.
func BenchmarkSessionReplies(b *testing.B) {
	for _, age := range []int{100, 800, 3200} {
		restore, err := json.Marshal(wire.SessionRestoreRequest{ID: "aged", Snapshot: agedSnapshot(age), SkipRatio: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, reply := range []struct{ name, method, path string }{
			{"schedule", http.MethodGet, "/v1/sessions/aged/schedule"},
			{"snapshot", http.MethodGet, "/v1/sessions/aged/snapshot"},
			{"delete", http.MethodDelete, "/v1/sessions/aged"},
		} {
			b.Run(fmt.Sprintf("%s/age=%d", reply.name, age), func(b *testing.B) {
				srv := New(Config{})
				defer srv.Close()
				h := srv.Handler()
				serve := func(method, path string, body []byte, want int) int {
					w := &missWriter{header: make(http.Header)}
					h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
					if w.code != want {
						b.Fatalf("%s %s: status %d: %s", method, path, w.code, w.head[:w.n])
					}
					return w.total
				}
				once := reply.method != http.MethodDelete
				if once {
					serve(http.MethodPost, "/v1/sessions/restore", restore, http.StatusCreated)
				}
				var n int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !once {
						b.StopTimer()
						serve(http.MethodPost, "/v1/sessions/restore", restore, http.StatusCreated)
						b.StartTimer()
					}
					n = serve(reply.method, reply.path, nil, http.StatusOK)
				}
				b.ReportMetric(float64(n), "body_B")
			})
		}
	}
}

// agedSnapshot is a session at virtual time age that has completed age
// tasks, one admitted per unit of time, each in one committed segment.
func agedSnapshot(age int) *dispatch.Snapshot {
	pm := power.Unit(3, 0.05)
	snap := &dispatch.Snapshot{
		Algorithm: dispatch.DefaultAlgorithm, Cores: 2, Model: pm, Now: float64(age),
		Replans: age, Commits: age, Seq: 3 * int64(age),
		Tasks:     make([]dispatch.TaskState, age),
		Committed: make([]schedule.Segment, age),
	}
	for i := range snap.Tasks {
		at := float64(i)
		snap.Tasks[i] = dispatch.TaskState{Release: at, Work: 0.5, Deadline: at + 2, ArrivedAt: at, Done: true, CompletedAt: at + 0.5}
		snap.Committed[i] = schedule.Segment{Task: i, Start: at, End: at + 0.5, Frequency: 1}
		snap.Realized += pm.EnergyForTime(0.5, 1)
	}
	return snap
}
