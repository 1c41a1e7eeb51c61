package segjson

import (
	"bytes"
	"encoding/binary"
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

// wireSegment has the fields and tags of wire.SegmentJSON, which this
// package cannot import.
type wireSegment struct {
	Task      int     `json:"task"`
	Core      int     `json:"core"`
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
	Frequency float64 `json:"frequency"`
}

// marshal returns what encoding/json writes for segs with k's keys.
func marshal(k *Keys, segs []schedule.Segment) ([]byte, error) {
	if k == Fields || segs == nil {
		return json.Marshal(segs)
	}
	ws := make([]wireSegment, len(segs))
	for i, s := range segs {
		ws[i] = wireSegment(s)
	}
	return json.Marshal(ws)
}

// Fields and Wire write what encoding/json writes, measured exactly,
// and Splice fits the array and its tail into a buffer with room for
// exactly them.
func TestFieldsMatchJSON(t *testing.T) {
	for _, s := range [][]schedule.Segment{nil, {}, edgeSegments()} {
		for _, k := range []*Keys{Fields, Wire} {
			want, err := marshal(k, s)
			if err != nil {
				t.Fatal(err)
			}
			var c FloatCache
			n, err := k.ArrayLen(s, &c)
			if err != nil {
				t.Fatal(err)
			}
			if got := k.AppendArray(make([]byte, 0, n), s, &c); !bytes.Equal(got, want) || cap(got) != n {
				t.Errorf("nil=%v: ArrayLen %d, AppendArray %d bytes (cap %d)\n%s\nwant %s", s == nil, n, len(got), cap(got), got, want)
			}
			// A buffer with room for exactly the result is not reallocated.
			want = []byte(`{"segments":` + string(want) + "}")
			head := append(make([]byte, 0, len(want)), `{"segments":`...)
			got, err := k.Splice(head, s, []byte("}"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || &got[0] != &head[:1][0] {
				t.Errorf("nil=%v: Splice wrote %d bytes (cap %d, reallocated %v)\n%s\nwant %s", s == nil, len(got), cap(got), &got[0] != &head[:1][0], got, want)
			}
		}
	}
}

// Random floats, far more distinct values than a FloatCache has slots,
// encode through it as encoding/json writes them, and no float
// outgrows the slot the cache holds it in.
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
		for _, f := range []float64{segs[i].Start, segs[i].End, segs[i].Frequency} {
			if n := len(appendFloat(nil, f)); n > maxFloatJSON {
				t.Fatalf("%v encodes in %d bytes, maxFloatJSON %d", f, n, maxFloatJSON)
			}
		}
	}
}

// A non-finite segment float fails both the measure and the splice,
// which leaves its buffer as it was.
func TestNonFiniteFails(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		segs := []schedule.Segment{{Start: 0, End: 1, Frequency: 1}, {Start: 1, End: bad, Frequency: 1}}
		if _, err := Wire.ArrayLen(segs, new(FloatCache)); err == nil {
			t.Errorf("ArrayLen accepted %v", bad)
		}
		if got, err := Wire.Splice([]byte("head"), segs, []byte("tail")); err == nil || string(got) != "head" {
			t.Errorf("Splice of %v: %q, %v", bad, got, err)
		}
	}
}

// collider returns a float whose bits differ from f's but share its
// slot in c, chosen by salt.
func collider(c *FloatCache, f float64, salt uint64) float64 {
	const inv = 0xf1de83e19937733d // inv*slotHash = 1 mod 2^64
	h := math.Float64bits(f) * slotHash
	low := uint64(1)<<c.shift - 1
	if salt&low == 0 {
		salt = 1
	}
	return math.Float64frombits((h ^ salt&low) * inv)
}

// FuzzSegmentArray encodes arrays through one idle cache that is
// never reset, each float followed by one that shares its slot and
// then by itself again, so every input meets slots left by the inputs
// before it and by its own colliding values. For both key sets,
// AppendArray must write json.Marshal's bytes and ArrayLen their
// length, and both must fail on a NaN or infinite value, as
// json.Marshal does. WriteArray, through a buffer of piece bytes,
// must write AppendArray's bytes. null selects a nil array, whatever
// raw holds.
func FuzzSegmentArray(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var b []byte
		for _, v := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(int64(3), int64(-1), uint64(1), bits(edgeFloats...), false, uint16(0))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint64(1<<50), bits(0.5, 1e-7, 1e21, 123456.789), false, uint16(200))
	f.Add(int64(0), int64(0), uint64(7), bits(1, 2, math.NaN()), false, uint16(pieceBytes))
	f.Add(int64(-9), int64(4), uint64(12345), bits(math.Inf(-1), 0), false, uint16(1))
	f.Add(int64(0), int64(0), uint64(1), []byte{}, true, uint16(1))                       // nil
	f.Add(int64(0), int64(0), uint64(1), []byte{}, false, uint16(1))                      // empty
	f.Add(int64(2), int64(1), uint64(3), bits(0.25), false, uint16(maxObject))            // one segment
	f.Add(int64(2), int64(1), uint64(3), bits(edgeFloats...), false, uint16(2*maxObject)) // two per piece
	c := TakeCache()
	f.Fuzz(func(t *testing.T, task, core int64, salt uint64, raw []byte, null bool, piece uint16) {
		c.fit(len(raw) / 8) // the slots ArrayLen and AppendArray use
		var fs []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			fs = append(fs, v, collider(c, v, salt), v)
		}
		segs := []schedule.Segment{}
		for i := 0; i+3 <= len(fs); i += 3 {
			segs = append(segs, schedule.Segment{Task: int(task) + i, Core: int(core) - i, Start: fs[i], End: fs[i+1], Frequency: fs[i+2]})
		}
		if null {
			segs = nil
		}
		for _, k := range []*Keys{Wire, Fields} {
			want, werr := marshal(k, segs)
			n, err := k.ArrayLen(segs, c)
			switch {
			case werr != nil:
				if err == nil {
					t.Fatalf("json.Marshal fails (%v), ArrayLen does not", werr)
				}
				continue
			case err != nil:
				t.Fatalf("ArrayLen: %v (json.Marshal: %s)", err, want)
			}
			if got := k.AppendArray([]byte("x"), segs, c); !bytes.Equal(got[1:], want) || n != len(want) {
				t.Fatalf("ArrayLen %d, AppendArray %d bytes:\n%s\nwant %s", n, len(got)-1, got[1:], want)
			}
			c.piece = make([]byte, 0, piece)
			var w pieceWriter
			if err := k.WriteArray(&w, segs, c); err != nil || !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("WriteArray through %d bytes (%v):\n%s\nwant %s", piece, err, w.Bytes(), want)
			}
			if per := max(1, int(piece)/maxObject); w.pieces != max(1, (len(segs)+per-1)/per) {
				t.Fatalf("WriteArray wrote %d segments through %d bytes in %d pieces", len(segs), piece, w.pieces)
			}
		}
	})
}

// pieceWriter keeps what is written to it and counts the writes.
type pieceWriter struct {
	bytes.Buffer
	pieces int
}

func (w *pieceWriter) Write(p []byte) (int, error) {
	w.pieces++
	return w.Buffer.Write(p)
}

// WriteString is the path io.WriteString takes: one write.
func (w *pieceWriter) WriteString(s string) (int, error) { return w.Write([]byte(s)) }

// An array uses about two slots per segment: a journal commit of a few
// dozen segments a small table, a served S^F2 reply of about 6 000
// segments (n=100, m=16) the largest, 16384 slots. A table grows to
// the slots an array uses and keeps them for a later, shorter one.
func TestTableSize(t *testing.T) {
	for _, c := range []struct{ segs, slots int }{
		{0, 64}, {1, 64}, {31, 64}, {32, 128}, {60, 128}, {1000, 2048},
		{4095, 8192}, {4096, 16384}, {6000, 16384}, {1 << 20, 16384},
	} {
		var fc FloatCache
		fc.fit(c.segs)
		if got := 1 << (64 - fc.shift); got != c.slots || len(fc.bits) != got || len(fc.size) != got || len(fc.text) != got {
			t.Errorf("%d segments use %d slots of a %d-slot table, want %d", c.segs, got, len(fc.bits), c.slots)
		}
		table := &fc.bits[0]
		fc.fit(1)
		if fc.shift != 64-minCacheBits || &fc.bits[0] != table {
			t.Errorf("after %d segments, 1 segment uses %d slots of a new table %v", c.segs, 1<<(64-fc.shift), &fc.bits[0] != table)
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
