package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/server/wire"
)

// waitGoroutines polls until the goroutine count drops to at most want,
// reporting the final count. HTTP keep-alive and test-server plumbing
// make exact equality impossible; the caller allows a small slack.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestShutdownWithInflightBatch checks the drain contract end to end:
// once draining starts, new solves are rejected with Retry-After, but a
// batch already in flight runs to completion — and nothing leaks.
func TestShutdownWithInflightBatch(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, hs := newTestServer(t, Config{
		Workers: 2, SolveTimeout: -1, FallbackAlgorithm: FallbackNone,
	})
	ts := sectionVD(t)

	batch := batchBody(t, []wire.ScheduleRequest{
		{Algorithm: "test-block", Cores: 4, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, Tasks: ts},
		{Algorithm: "S^F2", Cores: 4, Model: wire.ModelJSON{Alpha: 3, P0: 0.05}, Tasks: ts},
	})

	type batchOut struct {
		resp *http.Response
		body []byte
	}
	done := make(chan batchOut, 1)
	go func() {
		resp, body := postJSON(t, hs.URL+"/v1/schedule/batch", batch)
		done <- batchOut{resp, body}
	}()
	<-testBlockStarted // the batch is mid-solve

	// Shutdown begins: new work is turned away with a retry hint...
	srv.draining.Store(true)
	resp, _ := postJSON(t, hs.URL+"/v1/schedule", scheduleBody(t, "S^F2", ts, 4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 without Retry-After")
	}

	// ...but the in-flight batch still completes.
	testBlockRelease <- struct{}{}
	out := <-done
	if out.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight batch = %d, want 200: %s", out.resp.StatusCode, out.body)
	}
	var br wire.BatchResponse
	if err := json.Unmarshal(out.body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 2 {
		t.Fatalf("batch items = %d, want 2", len(br.Items))
	}
	// Item 0 (test-block) errors on release; item 1 must have solved.
	if br.Items[0].Error == "" || br.Items[0].Status == 0 {
		t.Fatalf("blocked item should report its error: %+v", br.Items[0])
	}
	if br.Items[1].Response == nil || br.Items[1].Response.Energy <= 0 {
		t.Fatalf("in-flight solve did not complete: %+v", br.Items[1])
	}

	// No goroutine leaks once the server is torn down.
	hs.Close()
	if n := waitGoroutines(baseline + 3); n > baseline+3 {
		t.Fatalf("goroutines after shutdown = %d, baseline %d: leak", n, baseline)
	}
}
