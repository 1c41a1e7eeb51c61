package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/server/wire"
)

// FuzzScheduleHandler throws malformed, truncated, and hostile JSON at
// POST /v1/schedule. The contract under fuzzing: the handler never
// panics, never returns a non-JSON error body, and any 200 it does
// return unmarshals into a well-formed ScheduleResponse.
func FuzzScheduleHandler(f *testing.F) {
	seeds := []string{
		// Valid request (the fuzzer mutates from here).
		`{"algorithm":"S^F2","cores":4,"model":{"alpha":3,"p0":0.05},"tasks":[{"release":0,"work":8,"deadline":10}]}`,
		// Truncated mid-object.
		`{"algorithm":"S^F2","cores":4,"tasks":[{"release":0,`,
		// Literal NaN / Inf are invalid JSON; 1e999 overflows to +Inf.
		`{"algorithm":"S^F2","cores":4,"tasks":[{"release":NaN,"work":1,"deadline":2}]}`,
		`{"algorithm":"S^F2","cores":4,"model":{"alpha":1e999},"tasks":[{"release":0,"work":1e999,"deadline":2}]}`,
		// Empty instance and degenerate shapes.
		`{"algorithm":"S^F2","cores":4,"tasks":[]}`,
		`{"algorithm":"S^F2","cores":0,"tasks":[{"release":0,"work":1,"deadline":2}]}`,
		`{"algorithm":"S^F2","cores":-1,"tasks":[{"release":0,"work":1,"deadline":2}]}`,
		// Deadline before release; zero-length window; negative work.
		`{"algorithm":"S^F2","cores":2,"tasks":[{"release":5,"work":1,"deadline":3}]}`,
		`{"algorithm":"S^F2","cores":2,"tasks":[{"release":5,"work":1,"deadline":5}]}`,
		`{"algorithm":"S^F2","cores":2,"tasks":[{"release":0,"work":-4,"deadline":5}]}`,
		// Unknown algorithm, wrong types, nulls, trailing garbage.
		`{"algorithm":"nope","cores":2,"tasks":[{"release":0,"work":1,"deadline":2}]}`,
		`{"algorithm":7,"cores":"two","tasks":"nope"}`,
		`{"algorithm":null,"cores":null,"model":null,"tasks":null}`,
		`{"algorithm":"S^F2","cores":2,"tasks":[{"release":0,"work":1,"deadline":2}]}trailing`,
		// Not JSON at all.
		``,
		`[]`,
		`"just a string"`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	srv := New(Config{CacheSize: -1, SolveTimeout: -1})
	handler := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // must not panic

		res := rec.Result()
		defer res.Body.Close()
		switch {
		case res.StatusCode == http.StatusOK:
			var sr wire.ScheduleResponse
			if err := json.NewDecoder(res.Body).Decode(&sr); err != nil {
				t.Fatalf("200 with unparseable body: %v", err)
			}
			if sr.Cores <= 0 || len(sr.Segments) == 0 {
				t.Fatalf("200 with degenerate schedule: %+v", sr)
			}
		case res.StatusCode >= 400 && res.StatusCode < 600:
			var env wire.ErrorEnvelope
			if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
				t.Fatalf("error status %d with unparseable body: %v", res.StatusCode, err)
			}
			if env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("status %d with incomplete error envelope: %+v", res.StatusCode, env)
			}
		default:
			t.Fatalf("unexpected status %d", res.StatusCode)
		}
	})
}

// segBytes packs one fuzz segment: task and core bytes, then the raw
// IEEE-754 bits of start, end and frequency.
func segBytes(task, core byte, start, end, freq float64) []byte {
	b := []byte{task, core}
	for _, f := range []float64{start, end, freq} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// FuzzEncodedResponse checks that a reply written from the bytes the
// cache stores is byte-identical to json.Encoder's output for the
// equivalent ScheduleResponse, for any segment values (floats below
// 1e-6 and at or above 1e21, negative zero, non-finite), with and
// without a sim report, degraded or not, cached both ways and any
// elapsed_ms; and that a batch assembled from those bytes equals
// json.Encoder's output for the equivalent BatchResponse.
func FuzzEncodedResponse(f *testing.F) {
	var seg []byte
	seg = append(seg, segBytes(0, 1, 0, 1e-7, 0.5)...)
	seg = append(seg, segBytes(1, 0, math.Copysign(0, -1), 1e21, 3.5e-300)...)
	seg = append(seg, segBytes(255, 3, 123456789.125, 1e20, 1)...)
	f.Add(seg, true, false, false, 0.0, "")
	f.Add(seg, false, true, true, 12.345678, "MaxFreq")
	f.Add(seg, true, true, true, 1e-9, `"cached":false,"segments":[],"elapsed_ms":0`)
	f.Add(segBytes(2, 2, math.NaN(), 1, 1), true, false, false, 3.0, "<&>")
	f.Add([]byte{}, true, false, true, math.Inf(1), "\xff")
	f.Add([]byte{}, false, false, false, math.Copysign(0, -1), "S^F2")

	f.Fuzz(func(t *testing.T, raw []byte, withSim, degraded, cached bool, elapsed float64, name string) {
		resp := wire.ScheduleResponse{
			Version: wire.Version, Algorithm: name, Cores: 4,
			Verified: true, Cached: cached, ElapsedMS: elapsed,
		}
		var floats []float64
		for len(raw) >= 26 {
			s := wire.SegmentJSON{Task: int(int8(raw[0])), Core: int(raw[1])}
			s.Start = math.Float64frombits(binary.LittleEndian.Uint64(raw[2:]))
			s.End = math.Float64frombits(binary.LittleEndian.Uint64(raw[10:]))
			s.Frequency = math.Float64frombits(binary.LittleEndian.Uint64(raw[18:]))
			resp.Segments = append(resp.Segments, s)
			floats = append(floats, s.Start, s.End, s.Frequency)
			raw = raw[26:]
		}
		if len(floats) > 0 {
			resp.Energy, resp.BusyTime, resp.Makespan = floats[0], floats[len(floats)/2], floats[len(floats)-1]
		}
		if degraded {
			resp.Degraded, resp.FallbackAlgorithm = true, name
		}
		if withSim {
			resp.Sim = &wire.SimReportJSON{
				Energy: resp.Energy, Horizon: resp.Makespan,
				CoreBusy: floats, Utilization: floats,
				Preemptions: len(floats), Migrations: 1, Wakeups: 2,
			}
			if name != "" {
				resp.Sim.Violations = []string{name}
			}
		}

		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(resp)
		enc, err := wire.EncodeSchedule(&resp)
		var parts net.Buffers
		if err == nil {
			parts, err = enc.Parts(cached, elapsed)
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("encode error %v, json.Encoder error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		rec := httptest.NewRecorder()
		writeEncoded(rec, parts)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("spliced reply differs from json.Encoder:\ngot  %s\nwant %s", got, want.Bytes())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Fatalf("Content-Length %s for a %d-byte body", cl, want.Len())
		}

		// A batch mixing hits, misses and an error item.
		other := resp
		other.Cached, other.ElapsedMS = !cached, -elapsed
		otherParts, err := enc.Parts(!cached, -elapsed)
		if err != nil {
			t.Fatal(err)
		}
		failed := wire.BatchItem{
			Error: name, Status: http.StatusServiceUnavailable,
			Code: wire.CodeUnavailable, Retryable: true,
		}
		parts, err = enc.Parts(cached, elapsed)
		if err != nil {
			t.Fatal(err)
		}
		body, err := wire.EncodeBatch([]wire.EncodedBatchItem{
			{Response: parts}, {Err: failed}, {Response: otherParts},
		}, elapsed)
		if err != nil {
			t.Fatal(err)
		}
		failed.Index = 1
		want.Reset()
		if err := json.NewEncoder(&want).Encode(wire.BatchResponse{
			Version: wire.Version,
			Items: []wire.BatchItem{
				{Index: 0, Response: &resp}, failed, {Index: 2, Response: &other},
			},
			ElapsedMS: elapsed,
		}); err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		writeEncoded(rec, body)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("batch differs from json.Encoder:\ngot  %s\nwant %s", got, want.Bytes())
		}
	})
}
