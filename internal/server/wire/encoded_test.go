package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/schedule"
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

// segmentsJSON is the wire form of segs, keeping nil as nil.
func segmentsJSON(segs []schedule.Segment) []SegmentJSON {
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
		Segments: segmentsJSON(segs),
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
		resp := ScheduleResponse{Algorithm: "S^F2", Cores: 1, Segments: segmentsJSON(segs)}
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
// several goroutines sharing the pooled float memo.
func TestEncodeScheduleMatchesJSON(t *testing.T) {
	segs, resps := servedReplies(t, 20)
	want := make([][]byte, len(segs))
	for i := range segs {
		v := resps[i]
		v.Segments = segmentsJSON(segs[i])
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
// and the result, with the float memo pooled (json.Marshal of the
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
