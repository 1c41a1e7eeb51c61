package server

import (
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/server/wire"
)

// elapsedField matches a reply's elapsed_ms member.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[^,}]*`)

// maskReply blanks the two members a reply may differ in between a
// solve and a cache hit of it: cached and elapsed_ms.
func maskReply(body []byte) string {
	s := strings.Replace(string(body), `"cached":true`, `"cached":false`, 1)
	return elapsedField.ReplaceAllString(s, `"elapsed_ms":0`)
}

// TestCacheKeyIsRequestBytes: the solve cache is keyed on the request's
// JSON bytes as sent. Identical bytes hit; a whitespace variant and a
// -0 written for a 0 mean the same instance but are separate entries,
// and every one of their replies is byte-identical to the first apart
// from cached and elapsed_ms.
func TestCacheKeyIsRequestBytes(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	base := string(scheduleBody(t, "S^F2", sectionVD(t), 4))
	spaced := strings.Replace(base, `"cores":4`, `"cores": 4`, 1)
	negZero := strings.Replace(base, `"release":0,`, `"release":-0,`, 1)
	if spaced == base || negZero == base {
		t.Fatalf("variants did not change the body: %s", base)
	}

	var want string
	for i, c := range []struct {
		body   string
		cached bool
	}{
		{base, false}, {base, true},
		{spaced, false}, {spaced, true},
		{negZero, false}, {negZero, true},
		{base, true},
	} {
		resp, body := postJSON(t, hs.URL+"/v1/schedule", []byte(c.body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr wire.ScheduleResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Cached != c.cached {
			t.Errorf("request %d: cached=%v, want %v", i, sr.Cached, c.cached)
		}
		if i == 0 {
			want = maskReply(body)
		} else if got := maskReply(body); got != want {
			t.Errorf("request %d: reply differs from the first beyond cached and elapsed_ms:\n%s\n%s", i, got, want)
		}
	}
	if n := srv.cache.order.Len(); n != 3 {
		t.Errorf("cache holds %d entries, want 3 (one per distinct body)", n)
	}
	if hits, misses := srv.metrics.cacheHits.Load(), srv.metrics.cacheMisses.Load(); hits != 4 || misses != 3 {
		t.Errorf("hits=%d misses=%d, want 4 and 3", hits, misses)
	}
}

// TestIOErrorAfterValidation: the io_error point is consulted only for
// a body the cache holds or one that decoded and validated. A cached
// body still gets the injected 503; a malformed body or an unknown
// algorithm gets its 400 or 404 without drawing the point.
func TestIOErrorAfterValidation(t *testing.T) {
	in := fault.New(fault.Plan{Rates: map[fault.Point]float64{fault.IOError: 1}, Seed: 1})
	srv, hs := newTestServer(t, Config{Faults: in})
	good := scheduleBody(t, "S^F2", sectionVD(t), 4)
	srv.cache.Put(sha256.Sum256(good), encoded(t, "S^F2"))

	for _, c := range []struct {
		name string
		body string
		want int
	}{
		{"cached", string(good), http.StatusServiceUnavailable},
		{"malformed", `{"algorithm":"S^F2","cores":4,"tasks":[`, http.StatusBadRequest},
		{"unknown field", strings.Replace(string(good), `{"algorithm"`, `{"bogus":1,"algorithm"`, 1), http.StatusBadRequest},
		{"unknown algorithm", strings.Replace(string(good), `"S^F2"`, `"nope"`, 1), http.StatusNotFound},
	} {
		resp, body := postJSON(t, hs.URL+"/v1/schedule", []byte(c.body))
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.want, body)
		}
	}
	if n := fired(in, fault.IOError); n != 1 {
		t.Errorf("io_error fired %d times, want 1 (the cached body only)", n)
	}
}

// TestFaultDrawsFollowParentOrder replays the injector's seeded draws
// on a twin: each well-formed request draws io_error, then, unless that
// fired, cache_corrupt, and a malformed one draws nothing. A corrupted
// entry degrades to a re-solve, never to a hit.
func TestFaultDrawsFollowParentOrder(t *testing.T) {
	plan := fault.Plan{Rates: map[fault.Point]float64{fault.IOError: 0.3, fault.CacheCorrupt: 0.3}, Seed: 7}
	in, twin := fault.New(plan), fault.New(plan)
	srv, hs := newTestServer(t, Config{Faults: in})
	ts := sectionVD(t)
	good := scheduleBody(t, "S^F2", ts, 4)
	bad := []byte(`{"algorithm":"S^F2","cores":4,"bogus":1}`)

	cached := false
	for i := 0; i < 60; i++ {
		if i%3 == 2 {
			if resp, body := postJSON(t, hs.URL+"/v1/schedule", bad); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
			continue
		}
		resp, body := postJSON(t, hs.URL+"/v1/schedule", good)
		if twin.Should(fault.IOError) {
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("request %d: status %d, want the injected 503: %s", i, resp.StatusCode, body)
			}
			continue
		}
		corrupt := twin.Should(fault.CacheCorrupt)
		wantCached := cached && !corrupt
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if sr := mustValidate(t, body, ts); sr.Cached != wantCached {
			t.Fatalf("request %d: cached=%v, want %v", i, sr.Cached, wantCached)
		}
		cached = true
	}
	if srv.metrics.cacheCorruptions.Load() == 0 || fired(in, fault.IOError) == 0 {
		t.Fatalf("the run never exercised both points: %+v", in.Counts())
	}
}

// fired is how often point p fired on in.
func fired(in *fault.Injector, p fault.Point) int64 {
	for _, c := range in.Counts() {
		if c.Point == p {
			return c.Fired
		}
	}
	return 0
}

// TestScheduleRejectsUnknownFields: an unknown field is a 400 naming it
// at every level of a schedule request, the task objects included.
func TestScheduleRejectsUnknownFields(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	const want = `invalid request body: json: unknown field "bogus"`
	for _, c := range []struct{ name, body string }{
		{"top level", `{"algorithm":"S^F2","cores":4,"model":{"alpha":3,"p0":0.05},"tasks":[{"release":0,"work":1,"deadline":4}],"bogus":1}`},
		{"model", `{"algorithm":"S^F2","cores":4,"model":{"alpha":3,"p0":0.05,"bogus":1},"tasks":[{"release":0,"work":1,"deadline":4}]}`},
		{"task", `{"algorithm":"S^F2","cores":4,"model":{"alpha":3,"p0":0.05},"tasks":[{"release":0,"work":1,"deadline":4,"bogus":1}]}`},
	} {
		resp, body := postJSON(t, hs.URL+"/v1/schedule", []byte(c.body))
		d, ok := wire.DecodeError(body)
		if resp.StatusCode != http.StatusBadRequest || !ok || d.Code != wire.CodeBadRequest || d.Message != want {
			t.Errorf("%s: status %d %s, want 400 %s %q", c.name, resp.StatusCode, body, wire.CodeBadRequest, want)
		}
	}
}
