package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
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

func TestEncodeScheduleSplices(t *testing.T) {
	resp := ScheduleResponse{
		Version: Version, Algorithm: `S^F2 "cached":false,`, Cores: 2,
		Energy: 1.5, Verified: true, Cached: true, ElapsedMS: 99,
		Segments: []SegmentJSON{
			{Task: 0, Core: 1, Start: math.Copysign(0, -1), End: 1e-7, Frequency: 1e21},
		},
		Degraded: true, FallbackAlgorithm: "MaxFreq",
		Sim: &SimReportJSON{Energy: 1.5, Violations: []string{`"elapsed_ms":0`}},
	}
	enc, err := EncodeSchedule(&resp)
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
	if _, err := EncodeSchedule(&resp); err == nil {
		t.Error("a non-finite energy was encoded")
	}
}

func TestEncodeBatch(t *testing.T) {
	resp := ScheduleResponse{Version: Version, Algorithm: "YDS", Cores: 1, Verified: true}
	enc, err := EncodeSchedule(&resp)
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
