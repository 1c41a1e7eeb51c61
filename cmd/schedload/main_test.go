package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/server/wire"
)

func TestShootReportsReply(t *testing.T) {
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	overloaded := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wire.WriteError(w, http.StatusServiceUnavailable, wire.CodeOverloaded, "admission queue full")
	})
	cases := []struct {
		name     string
		handler  http.Handler
		ok       int64
		firstErr string
	}{
		{"schedd", srv.Handler(), 1, ""},
		{"overloaded", overloaded, 0, "HTTP 503: admission queue full"},
	}

	pm := power.Model{Gamma: 1, Alpha: 3, P0: 0.05}
	instances, err := buildInstances("", 10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire.ScheduleRequest{
		Algorithm: "S^F2", Cores: 2, Model: wire.ModelJSON{Gamma: 1, Alpha: 3, P0: 0.05}, Tasks: instances[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			hs := httptest.NewServer(c.handler)
			defer hs.Close()
			st := &stats{codes: make(map[int]int64)}
			shoot(hs.Client(), hs.URL+"/v1/schedule", body, instances[0], 2, pm, false, 0, rand.New(rand.NewSource(1)), st)
			if st.ok != c.ok || st.verifyFail != 0 || st.firstErr != c.firstErr {
				t.Fatalf("ok=%d verifyFail=%d firstErr=%q, want ok=%d verifyFail=0 firstErr=%q",
					st.ok, st.verifyFail, st.firstErr, c.ok, c.firstErr)
			}
		})
	}
}

func TestRunStreamAgainstSchedd(t *testing.T) {
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	code := runStream(streamConfig{
		addr: hs.URL, sessions: 2, algorithm: "ReplanDER", cores: 2,
		model: wire.ModelJSON{Gamma: 1, Alpha: 3, P0: 0.05},
		pm:    power.Model{Gamma: 1, Alpha: 3, P0: 0.05},

		process: "poisson", batches: 4, rate: 0.5, batchLo: 1, batchHi: 2,
		seed: 1, timeout: 10 * time.Second,
	})
	if code != 0 {
		t.Fatalf("runStream exit code %d, want 0", code)
	}
}
