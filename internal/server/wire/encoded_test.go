package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/segjson"
	"repro/internal/sim"
	"repro/internal/task"
)

// join concatenates parts and adds the newline json.Encoder ends with.
func join(parts [][]byte) []byte {
	return append(bytes.Join(parts, nil), '\n')
}

func encoderOutput(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireSegments is the wire form of segs, keeping nil as nil.
func wireSegments(segs []schedule.Segment) []SegmentJSON {
	if segs == nil {
		return nil
	}
	return Segments(&schedule.Schedule{Segments: segs})
}

func TestEncodeScheduleSplices(t *testing.T) {
	segs := []schedule.Segment{
		{Task: 0, Core: 1, Start: math.Copysign(0, -1), End: 1e-7, Frequency: 1e21},
	}
	resp := ScheduleResponse{
		Version: Version, Algorithm: `S^F2 "cached":false,"segments":null,"elapsed_ms":0`, Cores: 2,
		Energy: 1.5, Verified: true, Cached: true, ElapsedMS: 99,
		Segments: wireSegments(segs),
		Degraded: true, FallbackAlgorithm: "MaxFreq",
		Sim: &SimReportJSON{Energy: 1.5, Violations: []string{`"elapsed_ms":0`}},
	}
	enc, err := EncodeSchedule(&resp, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cached  bool
		elapsed float64
	}{{false, 0}, {true, 12.5}, {true, 1e-9}, {false, 3e21}, {true, math.Copysign(0, -1)}} {
		parts, err := enc.Parts(tc.cached, tc.elapsed)
		if err != nil {
			t.Fatal(err)
		}
		want := resp
		want.Cached, want.ElapsedMS = tc.cached, tc.elapsed
		if got, want := join(parts), encoderOutput(t, want); !bytes.Equal(got, want) {
			t.Errorf("cached=%v elapsed=%g:\ngot  %s\nwant %s", tc.cached, tc.elapsed, got, want)
		}
	}
	if _, err := enc.Parts(false, math.NaN()); err == nil {
		t.Error("a NaN elapsed_ms was spliced in")
	}
	resp.Energy = math.Inf(1)
	if _, err := EncodeSchedule(&resp, segs); err == nil {
		t.Error("a non-finite energy was encoded")
	}
}

// A nil segment list encodes as null and an empty one as [], as
// encoding/json writes them; a non-finite segment float is an error.
func TestEncodeScheduleSegmentEdges(t *testing.T) {
	for _, segs := range [][]schedule.Segment{nil, {}} {
		resp := ScheduleResponse{Algorithm: "S^F2", Cores: 1, Segments: wireSegments(segs)}
		enc, err := EncodeSchedule(&resp, segs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Body, want) {
			t.Errorf("nil=%v:\ngot  %s\nwant %s", segs == nil, enc.Body, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		segs := []schedule.Segment{{Start: 0, End: 1, Frequency: 0.5}, {Start: 1, End: 0.5, Frequency: bad}}
		if _, err := EncodeSchedule(&ScheduleResponse{}, segs); err == nil {
			t.Errorf("segment frequency %v was encoded", bad)
		}
	}
}

// servedReplies returns the segments and response frame of count S^F2
// replies to paper-default n=100 instances on 16 cores.
func servedReplies(tb testing.TB, count int) ([][]schedule.Segment, []ScheduleResponse) {
	tb.Helper()
	rng := rand.New(rand.NewSource(2))
	pm := power.Unit(3, 0.05)
	var segs [][]schedule.Segment
	var resps []ScheduleResponse
	for len(segs) < count {
		ts, err := task.Generate(rng, task.PaperDefaults(100))
		if err != nil {
			tb.Fatal(err)
		}
		res, err := core.NewSolver().Final(ts, 16, pm, alloc.DER, core.Options{Tolerance: 1e-9})
		if err != nil {
			tb.Fatal(err)
		}
		rep, err := sim.Run(res.Final, pm)
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, res.Final.Segments)
		resps = append(resps, ScheduleResponse{
			Version: Version, Algorithm: "S^F2", Cores: 16,
			Energy: res.FinalEnergy, BusyTime: res.Final.BusyTime(), Makespan: res.Final.Makespan(),
			Verified: true, Sim: SimReport(rep),
		})
	}
	return segs, resps
}

// On replies the size the server serves, the encoded body equals
// json.Marshal's output for the equivalent ScheduleResponse, also with
// several goroutines sharing the pooled float caches.
func TestEncodeScheduleMatchesJSON(t *testing.T) {
	segs, resps := servedReplies(t, 20)
	want := make([][]byte, len(segs))
	for i := range segs {
		v := resps[i]
		v.Segments = wireSegments(segs[i])
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range segs {
				i := (k + 5*w) % len(segs)
				enc, err := EncodeSchedule(&resps[i], segs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(enc.Body, want[i]) {
					t.Errorf("reply %d (%d segments) differs from json.Marshal", i, len(segs[i]))
				}
				if len(enc.Body) != cap(enc.Body) {
					t.Errorf("reply %d: body len %d, cap %d: the buffer is not sized exactly", i, len(enc.Body), cap(enc.Body))
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEncodeScheduleAllocs pins the encoder's allocations on a served
// S^F2 n=100, m=16 reply: the body, the frame encoding/json marshals
// and the result, with the float cache pooled (json.Marshal of the
// equivalent struct, plus the SegmentJSON copy it needs, takes 6 to 7).
func TestEncodeScheduleAllocs(t *testing.T) {
	segs, resps := servedReplies(t, 1)
	encode := func() {
		if _, err := EncodeSchedule(&resps[0], segs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so pooled scratch reallocates")
	}
	encode() // warm the pool
	if avg := testing.AllocsPerRun(20, encode); avg > 8 {
		t.Fatalf("EncodeSchedule(S^F2, n=100, m=16) allocates %.0f/op, ceiling 8", avg)
	}
}

func TestEncodeBatch(t *testing.T) {
	resp := ScheduleResponse{Version: Version, Algorithm: "YDS", Cores: 1, Verified: true}
	enc, err := EncodeSchedule(&resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := enc.Parts(true, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	failed := BatchItem{Error: "unknown algorithm <x>", Status: 404, Code: CodeUnknownAlgorithm}
	body, err := EncodeBatch([]EncodedBatchItem{{Err: failed}, {Response: hit}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cached := resp
	cached.Cached, cached.ElapsedMS = true, 0.25
	want := encoderOutput(t, BatchResponse{
		Version:   Version,
		Items:     []BatchItem{failed, {Index: 1, Response: &cached}},
		ElapsedMS: 7,
	})
	if got := join(body); !bytes.Equal(got, want) {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
	if _, err := EncodeBatch(nil, math.Inf(-1)); err == nil {
		t.Fatal("a non-finite batch elapsed_ms was encoded")
	}
}

// Both encoders splice at a literal found in encoding/json's output; a
// body without it must fail rather than splice at offset -1.
func TestIndexMissingLiteral(t *testing.T) {
	if at, err := index([]byte(`{"items":[],"elapsed_ms":0}`), `"items":[]`); err != nil || at != 1 {
		t.Fatalf("index = %d, %v; want 1, nil", at, err)
	}
	if _, err := index([]byte(`{"items":null}`), `"items":[]`); err == nil {
		t.Fatal("a missing literal was found")
	}
}

// WriteSpliced writes what json.NewEncoder writes for the DELETE
// /v1/sessions/{id} report on nil, empty and edge-valued segment
// arrays, with and without the sim report, for the GET schedule reply
// with two arrays and for the GET snapshot reply with schedule.Segment's
// keys, each with an exact Content-Length. A non-finite value anywhere,
// or a reply without a splice's field, is an error before anything is
// written.
func TestWriteSplicedMatchesJSON(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		segs []schedule.Segment
	}{
		{"nil", nil},
		{"empty", []schedule.Segment{}},
		{"-0", []schedule.Segment{{Task: 0, Core: 0, Start: negZero, End: 0.5, Frequency: 1}}},
		{"1e-7", []schedule.Segment{{Task: 1, Core: 2, Start: 1e-7, End: 2e-7, Frequency: 1e-7}}},
		{"1e21", []schedule.Segment{{Task: 2, Core: 1, Start: 1e20, End: 1e21, Frequency: 1e21}, {Task: 0, Core: 0, Start: 0, End: 1, Frequency: 0.999999}}},
		{"long", servedSegments(t)},
	}
	check := func(name string, want []byte, v any, splices ...Splice) {
		t.Helper()
		w := httptest.NewRecorder()
		if err := WriteSpliced(w, http.StatusCreated, v, splices...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := w.Body.Bytes()
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\ngot  %.300s\nwant %.300s", name, got, want)
		}
		if w.Code != http.StatusCreated || w.Header().Get("Content-Length") != strconv.Itoa(len(want)) || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, header %v, want Content-Length %d", name, w.Code, w.Header(), len(want))
		}
	}
	encode := func(v any) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tc := range cases {
		for _, sim := range []*SimReportJSON{nil, {Energy: 1.5, Preemptions: 2, Violations: []string{`<a href="&">`}}} {
			resp := SessionFinalResponse{
				Version: Version, ID: "s-1", Algorithm: `Replan"DER" "segments":null`, Cores: 4,
				RealizedEnergy: 12.5, CompetitiveRatio: 1.25, OptError: "skipped < >",
				Replans: 3, Commits: 2, Completed: 2, Shed: 1, Missed: []int{4}, Horizon: 1e21,
				Violations: []string{"v&1"}, Tasks: task.Set{{ID: 0, Release: 0, Work: 1, Deadline: 2}},
				Sim: sim,
			}
			head := resp
			resp.Segments = wireSegments(tc.segs)
			check(tc.name+" final", encode(resp), &head, Splice{Key: "segments", Keys: segjson.Wire, Segs: tc.segs})
		}
		planned := cases[4].segs
		sched := SessionScheduleResponse{Version: Version, ID: "s-2", Algorithm: "ReplanDER", Cores: 2, Stats: SessionStats{Commits: 3}}
		head := sched
		sched.Committed, sched.Planned = wireSegments(tc.segs), wireSegments(planned)
		check(tc.name+" schedule", encode(sched), &head,
			Splice{Key: "committed", Keys: segjson.Wire, Segs: tc.segs},
			Splice{Key: "planned", Keys: segjson.Wire, Segs: planned})
		snap := &SessionSnapshot{Algorithm: "ReplanDER", Cores: 2, Tasks: []dispatch.TaskState{{Work: 1, Deadline: 2}}, Committed: tc.segs}
		want := encode(SessionSnapshotResponse{Version: Version, ID: "s-3", Snapshot: snap})
		bare := *snap
		bare.Committed = nil
		check(tc.name+" snapshot", want, &SessionSnapshotResponse{Version: Version, ID: "s-3", Snapshot: &bare},
			Splice{Key: "committed", Keys: segjson.Fields, Segs: tc.segs})
	}
	bad := []schedule.Segment{{Start: 0, End: 1, Frequency: math.NaN()}}
	for _, tc := range []struct {
		name string
		v    any
		sp   []Splice
	}{
		{"NaN frequency", &SessionFinalResponse{}, []Splice{{Key: "segments", Keys: segjson.Wire, Segs: bad}}},
		{"infinite horizon", &SessionFinalResponse{Horizon: math.Inf(1)}, nil},
		{"NaN sim energy", &SessionFinalResponse{Sim: &SimReportJSON{Energy: math.NaN()}}, nil},
		{"no such field", &SessionFinalResponse{}, []Splice{{Key: "segment", Keys: segjson.Wire}}},
		{"field not nil", &SessionScheduleResponse{Committed: []SegmentJSON{}}, []Splice{{Key: "committed", Keys: segjson.Wire}}},
		{"fields out of order", &SessionScheduleResponse{}, []Splice{{Key: "planned", Keys: segjson.Wire}, {Key: "committed", Keys: segjson.Wire}}},
	} {
		w := httptest.NewRecorder()
		if err := WriteSpliced(w, http.StatusOK, tc.v, tc.sp...); err == nil {
			t.Errorf("%s: written", tc.name)
		}
		if w.Body.Len() != 0 || len(w.Header()) != 0 {
			t.Errorf("%s: wrote %q with header %v before failing", tc.name, w.Body.Bytes(), w.Header())
		}
	}
}

// servedSegments returns the segments of a served S^F2 reply, several
// pieces of WriteArray long.
func servedSegments(tb testing.TB) []schedule.Segment {
	segs, _ := servedReplies(tb, 1)
	return segs[0]
}
