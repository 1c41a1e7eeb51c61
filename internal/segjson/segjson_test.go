package segjson

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/schedule"
)

// edgeFloats are the values where encoding/json's float format changes
// or is easy to get wrong: signed zeros, subnormals, both sides of the
// 1e-6 and 1e21 switches to exponent form, and one-digit exponents.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6, 1e-7, -1e-7,
	0.1, 1, 123456.789, 9.999999999999999e20, 1e21, -1e21, 1.7976931348623157e308,
}

func edgeSegments() []schedule.Segment {
	var segs []schedule.Segment
	for i, f := range edgeFloats {
		g := edgeFloats[(i+5)%len(edgeFloats)]
		segs = append(segs, schedule.Segment{Task: i - 3, Core: -i, Start: f, End: g, Frequency: -f})
	}
	return segs
}

// Fields writes what encoding/json writes for schedule.Segment, both as
// objects and, through an Encoder, as a whole array.
func TestFieldsMatchJSON(t *testing.T) {
	segs := edgeSegments()
	want, err := json.Marshal(segs)
	if err != nil {
		t.Fatal(err)
	}
	objs, err := Fields.AppendObjects([]byte("["), segs)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(objs, ']'); !bytes.Equal(got, want) {
		t.Errorf("AppendObjects:\ngot  %s\nwant %s", got, want)
	}
	for _, s := range [][]schedule.Segment{nil, {}, segs} {
		e := NewEncoder(Fields)
		n, err := e.Measure(s)
		if err != nil {
			t.Fatal(err)
		}
		got := e.AppendArray(make([]byte, 0, n), s)
		e.Release()
		if cap(got) != n {
			t.Errorf("nil=%v: the array outgrew its measured %d bytes (cap %d)", s == nil, n, cap(got))
		}
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || n != len(got) {
			t.Errorf("nil=%v: measured %d, got %d bytes\n%s\nwant %s", s == nil, n, len(got), got, want)
		}
		var c FloatCache
		if n, err = Fields.ArrayLen(s, &c); err != nil {
			t.Fatal(err)
		}
		if got = Fields.AppendArray(make([]byte, 0, n), s, &c); !bytes.Equal(got, want) || cap(got) != n {
			t.Errorf("nil=%v: ArrayLen %d, AppendArray %d bytes (cap %d)\n%s\nwant %s", s == nil, n, len(got), cap(got), got, want)
		}
	}
}

// Random floats, far more distinct values than a FloatCache has slots,
// encode through it as encoding/json writes them, and no float or
// segment object outgrows the bounds the cache and MaxObject assume.
func TestFloatCacheRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	segs := make([]schedule.Segment, 20000)
	float := func() float64 {
		for {
			f := math.Float64frombits(rng.Uint64())
			if rng.Intn(2) == 0 {
				f = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(50)-25))
			}
			if finite(f) {
				return f
			}
		}
	}
	for i := range segs {
		segs[i] = schedule.Segment{Task: int(rng.Int63()) - rng.Intn(2)*math.MaxInt64, Core: -rng.Intn(1 << 20),
			Start: float(), End: float(), Frequency: float()}
		// Repeats, as a schedule has, so that the cache also hits.
		if i > 0 && rng.Intn(3) == 0 {
			segs[i].Start = segs[i-1].End
		}
	}
	segs = append(segs, schedule.Segment{Task: math.MinInt64, Core: math.MinInt64,
		Start: -1.2345678901234567e-300, End: -0.0000012345678901234567, Frequency: -123456789012345680000})
	want, err := json.Marshal(segs)
	if err != nil {
		t.Fatal(err)
	}
	var c FloatCache
	n, err := Fields.ArrayLen(segs, &c)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fields.AppendArray(make([]byte, 0, n), segs, &c); !bytes.Equal(got, want) || len(got) != n {
		t.Fatalf("AppendArray differs from json.Marshal (%d bytes, measured %d, want %d)", len(got), n, len(want))
	}
	for i := range segs {
		obj, err := Fields.AppendObjects(nil, segs[i:i+1])
		if err != nil || len(obj) > MaxObject {
			t.Fatalf("segment %v encodes in %d bytes (%v), MaxObject %d", segs[i], len(obj), err, MaxObject)
		}
		for _, f := range []float64{segs[i].Start, segs[i].End, segs[i].Frequency} {
			if n := len(appendFloat(nil, f)); n > maxFloatJSON {
				t.Fatalf("%v encodes in %d bytes, maxFloatJSON %d", f, n, maxFloatJSON)
			}
		}
	}
}

// A non-finite segment float fails both ways of writing it.
func TestNonFiniteFails(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		segs := []schedule.Segment{{Start: 0, End: 1, Frequency: 1}, {Start: 1, End: bad, Frequency: 1}}
		if _, err := Wire.AppendObjects(nil, segs); err == nil {
			t.Errorf("AppendObjects encoded %v", bad)
		}
		e := NewEncoder(Wire)
		if _, err := e.Measure(segs); err == nil {
			t.Errorf("Measure accepted %v", bad)
		}
		e.Release()
		if _, err := Wire.ArrayLen(segs, new(FloatCache)); err == nil {
			t.Errorf("ArrayLen accepted %v", bad)
		}
	}
}

// AppendJSON cuts exactly the prefix and suffix it is given, and
// refuses an encoding that lacks them instead of splicing elsewhere.
func TestAppendJSON(t *testing.T) {
	type rec struct {
		A int      `json:"a"`
		B []string `json:"b,omitempty"`
		C *int     `json:"c"`
	}
	zero := ZeroPrefix(rec{})
	if zero != `{"a":0,"c":null` {
		t.Fatalf("ZeroPrefix = %s", zero)
	}
	got, err := AppendJSON([]byte("x"), &rec{A: 7, B: []string{"<&>"}}, "", "null}")
	if err != nil || string(got) != `x{"a":7,"b":["\u003c\u0026\u003e"],"c":` {
		t.Fatalf("head: %s, %v", got, err)
	}
	if _, err := AppendJSON(nil, &rec{A: 7}, zero, ""); err == nil {
		t.Error("spliced after a prefix the encoding does not have")
	}
	if _, err := AppendJSON(nil, math.NaN(), "", ""); err == nil {
		t.Error("encoded NaN")
	}
}
