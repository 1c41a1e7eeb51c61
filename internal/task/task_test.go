package task

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTaskDerived(t *testing.T) {
	tk := Task{ID: 0, Release: 2, Work: 6, Deadline: 14}
	if got := tk.Window(); got != 12 {
		t.Errorf("Window = %g, want 12", got)
	}
	if got := tk.Intensity(); got != 0.5 {
		t.Errorf("Intensity = %g, want 0.5", got)
	}
	if !tk.Contains(4, 8) {
		t.Error("Contains(4,8) should hold")
	}
	if tk.Contains(0, 8) {
		t.Error("Contains(0,8) should not hold (release is 2)")
	}
	if tk.Contains(4, 15) {
		t.Error("Contains(4,15) should not hold (deadline is 14)")
	}
}

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name string
		tk   Task
		ok   bool
	}{
		{"valid", Task{Release: 0, Work: 1, Deadline: 2}, true},
		{"zero work", Task{Release: 0, Work: 0, Deadline: 2}, false},
		{"negative work", Task{Release: 0, Work: -1, Deadline: 2}, false},
		{"empty window", Task{Release: 2, Work: 1, Deadline: 2}, false},
		{"inverted window", Task{Release: 3, Work: 1, Deadline: 2}, false},
		{"nan release", Task{Release: math.NaN(), Work: 1, Deadline: 2}, false},
		{"inf deadline", Task{Release: 0, Work: 1, Deadline: math.Inf(1)}, false},
	}
	for _, c := range cases {
		err := c.tk.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewAssignsIDs(t *testing.T) {
	s, err := New([3]float64{0, 4, 12}, [3]float64{2, 2, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range s {
		if tk.ID != i {
			t.Errorf("task %d has ID %d", i, tk.ID)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New([3]float64{0, -4, 12}); err == nil {
		t.Error("negative work should be rejected")
	}
	if _, err := New(); err == nil {
		t.Error("empty set should be rejected")
	}
}

func TestSetValidateNumbering(t *testing.T) {
	s := MustNew([3]float64{0, 1, 2}, [3]float64{0, 1, 3})
	s[1].ID = 7
	if err := s.Validate(); err == nil {
		t.Error("bad numbering should fail validation")
	}
	s.Renumber()
	if err := s.Validate(); err != nil {
		t.Errorf("after Renumber: %v", err)
	}
}

func TestSpanAndTotals(t *testing.T) {
	s := Fig1Example()
	lo, hi := s.Span()
	if lo != 0 || hi != 12 {
		t.Errorf("Span = (%g, %g), want (0, 12)", lo, hi)
	}
	if got := s.TotalWork(); got != 10 {
		t.Errorf("TotalWork = %g, want 10", got)
	}
	if got := s.MaxIntensity(); got != 1 {
		t.Errorf("MaxIntensity = %g, want 1 (τ3 is 4/(8-4))", got)
	}
}

func TestTimePointsFig1(t *testing.T) {
	s := Fig1Example()
	got := s.TimePoints(0)
	want := []float64{0, 2, 4, 8, 10, 12}
	if len(got) != len(want) {
		t.Fatalf("TimePoints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TimePoints[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestTimePointsDeduplicate(t *testing.T) {
	s := MustNew(
		[3]float64{0, 1, 10},
		[3]float64{0, 1, 10},
		[3]float64{5, 1, 10},
	)
	got := s.TimePoints(0)
	want := []float64{0, 5, 10}
	if len(got) != len(want) {
		t.Fatalf("TimePoints = %v, want %v", got, want)
	}
}

func TestTimePointsTolerance(t *testing.T) {
	s := MustNew(
		[3]float64{0, 1, 10},
		[3]float64{1e-12, 1, 10.0000000001},
	)
	got := s.TimePoints(1e-9)
	if len(got) != 2 {
		t.Errorf("with tolerance, near-duplicates should merge: %v", got)
	}
}

func TestTimePointsSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := MustGenerate(rng, PaperDefaults(15))
		pts := s.TimePoints(0)
		if !sort.Float64sAreSorted(pts) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i] == pts[i-1] {
				return false
			}
		}
		// Every release and deadline must appear.
		for _, tk := range s {
			iR := sort.SearchFloat64s(pts, tk.Release)
			iD := sort.SearchFloat64s(pts, tk.Deadline)
			if iR >= len(pts) || pts[iR] != tk.Release {
				return false
			}
			if iD >= len(pts) || pts[iD] != tk.Deadline {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortedByDeadline(t *testing.T) {
	s := SectionVDExample()
	edf := s.SortedByDeadline()
	for i := 1; i < len(edf); i++ {
		if edf[i].Deadline < edf[i-1].Deadline {
			t.Fatalf("not sorted at %d: %v", i, edf)
		}
	}
	// Original preserved.
	if s[0].ID != 0 || s[0].Deadline != 10 {
		t.Error("SortedByDeadline must not mutate the receiver")
	}
	// IDs preserved in the copy.
	if edf[0].ID != 0 {
		t.Errorf("earliest deadline is τ0 (D=10), got τ%d", edf[0].ID)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := Fig1Example()
	c := s.Clone()
	c[0].Work = 99
	if s[0].Work == 99 {
		t.Error("Clone must not share backing storage")
	}
}

func TestPaperExamples(t *testing.T) {
	s := SectionVDExample()
	if len(s) != 6 {
		t.Fatalf("Section V.D example has %d tasks", len(s))
	}
	// Paper's ideal frequencies with p0=0: C/(D-R).
	want := []float64{8.0 / 10, 14.0 / 16, 8.0 / 12, 4.0 / 8, 10.0 / 12, 6.0 / 10}
	for i, tk := range s {
		if math.Abs(tk.Intensity()-want[i]) > 1e-12 {
			t.Errorf("τ%d intensity = %g, want %g", i+1, tk.Intensity(), want[i])
		}
	}
}

func TestGenerateRespectsRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := PaperDefaults(200)
	s := MustGenerate(rng, p)
	if len(s) != 200 {
		t.Fatalf("generated %d tasks", len(s))
	}
	for _, tk := range s {
		if tk.Release < 0 || tk.Release > 200 {
			t.Errorf("release %g out of [0,200]", tk.Release)
		}
		if tk.Work < 10 || tk.Work > 30 {
			t.Errorf("work %g out of [10,30]", tk.Work)
		}
		in := tk.Intensity()
		if in < 0.1-1e-9 || in > 1.0+1e-9 {
			t.Errorf("intensity %g out of [0.1,1.0]", in)
		}
	}
}

func TestGenerateGridIntensities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := PaperDefaults(500)
	p.IntensityChoices = GridIntensities()
	s := MustGenerate(rng, p)
	grid := GridIntensities()
	for _, tk := range s {
		in := tk.Intensity()
		found := false
		for _, g := range grid {
			if math.Abs(in-g) < 1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("intensity %g not on the grid", in)
		}
	}
}

func TestGenerateFreqScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := XScaleDefaults(100)
	s := MustGenerate(rng, p)
	for _, tk := range s {
		// Intensity must lie in [0.1*400, 1.0*400] MHz.
		in := tk.Intensity()
		if in < 40-1e-6 || in > 400+1e-6 {
			t.Errorf("XScale intensity %g out of [40,400] MHz", in)
		}
		if tk.Work < 4000 || tk.Work > 8000 {
			t.Errorf("XScale work %g out of [4000,8000]", tk.Work)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(rand.New(rand.NewSource(99)), PaperDefaults(20))
	b := MustGenerate(rand.New(rand.NewSource(99)), PaperDefaults(20))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different sets at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGenerateValidatesParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []GenParams{
		{N: 0, WorkLo: 1, WorkHi: 2, IntensityLo: 0.1, IntensityHi: 1},
		{N: 5, WorkLo: 0, WorkHi: 2, IntensityLo: 0.1, IntensityHi: 1},
		{N: 5, WorkLo: 3, WorkHi: 2, IntensityLo: 0.1, IntensityHi: 1},
		{N: 5, WorkLo: 1, WorkHi: 2, IntensityLo: 0, IntensityHi: 1},
		{N: 5, WorkLo: 1, WorkHi: 2, IntensityLo: 1, IntensityHi: 0.1},
		{N: 5, WorkLo: 1, WorkHi: 2, IntensityChoices: []float64{0.5, 0}},
		{N: 5, ReleaseLo: 5, ReleaseHi: 1, WorkLo: 1, WorkHi: 2, IntensityLo: 0.1, IntensityHi: 1},
		{N: 5, WorkLo: 1, WorkHi: 2, IntensityLo: 0.1, IntensityHi: 1, FreqScale: -1},
	}
	for i, p := range bad {
		if _, err := Generate(rng, p); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestGenerateIntensityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := PaperDefaults(10)
		p.IntensityLo, p.IntensityHi = 0.3, 0.7
		s := MustGenerate(rng, p)
		for _, tk := range s {
			in := tk.Intensity()
			if in < 0.3-1e-9 || in > 0.7+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := MustGenerate(rng, PaperDefaults(17))
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("round trip length %d != %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Errorf("task %d: %v != %v", i, got[i], s[i])
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var s Set
	if err := s.UnmarshalJSON([]byte(`[{"release":5,"work":1,"deadline":2}]`)); err == nil {
		t.Error("inverted window should fail to decode")
	}
	if err := s.UnmarshalJSON([]byte(`{"not":"an array"}`)); err == nil {
		t.Error("non-array should fail to decode")
	}
}

// TestJSONRejectsUnknownFields: a task object with a field the codec
// does not know is an error naming it, wherever it sits; a key that
// matches a field up to case or escaping is accepted, as encoding/json's
// DisallowUnknownFields accepts it.
func TestJSONRejectsUnknownFields(t *testing.T) {
	for _, c := range []struct{ name, in, err string }{
		{"number", `[{"release":0,"work":1,"deadline":4,"bogus":1}]`, `json: unknown field "bogus"`},
		{"first", `[{"bogus":"x","release":0,"work":1,"deadline":4}]`, `json: unknown field "bogus"`},
		{"object value", `[{"release":0,"work":1,"deadline":4,"bogus":{"release":1}}]`, `json: unknown field "bogus"`},
		{"second task", `[{"release":0,"work":1,"deadline":4}, {"release":0,"work":1,"deadline":4,"id":1}]`, `json: unknown field "id"`},
		{"case", `[{"Release":0,"WORK":1,"deadline":4}]`, ""},
		{"escaped", `[{"rel\u0065ase":0,"work":1,"deadline":4}]`, ""},
		{"whitespace", ` [ { "release" : 0 , "work" : 1 , "deadline" : 4 } ] `, ""},
	} {
		var s Set
		err := s.UnmarshalJSON([]byte(c.in))
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err == "" && (len(s) != 1 || s[0].Work != 1):
			t.Errorf("%s: decoded %v", c.name, s)
		case c.err != "" && (err == nil || err.Error() != c.err):
			t.Errorf("%s: error %v, want %s", c.name, err, c.err)
		}
	}
}

func TestGridIntensities(t *testing.T) {
	g := GridIntensities()
	if len(g) != 10 || g[0] != 0.1 || g[9] != 1.0 {
		t.Errorf("grid = %v", g)
	}
}

func BenchmarkGenerate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := PaperDefaults(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MustGenerate(rng, p)
	}
}

func BenchmarkTimePoints(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := MustGenerate(rng, PaperDefaults(40))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.TimePoints(0)
	}
}
