package pack

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// checkNoCollisions verifies the two safety invariants of Algorithm 1:
// no two pieces overlap on the same core, and no task runs on two cores
// at the same time.
func checkNoCollisions(t *testing.T, pieces []Piece) {
	t.Helper()
	byCore := map[int][]Piece{}
	byTask := map[int][]Piece{}
	for _, p := range pieces {
		byCore[p.Core] = append(byCore[p.Core], p)
		byTask[p.Task] = append(byTask[p.Task], p)
	}
	overlap := func(ps []Piece, what string) {
		sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
		for i := 1; i < len(ps); i++ {
			if ps[i].Start < ps[i-1].End-1e-9 {
				t.Errorf("%s overlap: %+v and %+v", what, ps[i-1], ps[i])
			}
		}
	}
	for c, ps := range byCore {
		overlap(ps, "core "+string(rune('0'+c)))
	}
	for id, ps := range byTask {
		overlap(ps, "task "+string(rune('0'+id)))
	}
}

func totals(pieces []Piece) map[int]float64 {
	out := map[int]float64{}
	for _, p := range pieces {
		out[p.Task] += p.End - p.Start
	}
	return out
}

func TestSectionVDEvenPacking(t *testing.T) {
	// Section V.D / Fig. 4(b): five tasks each allocated 8/5 within [8,10]
	// on four cores.
	reqs := []Request{{0, 1.6}, {1, 1.6}, {2, 1.6}, {3, 1.6}, {4, 1.6}}
	pieces, err := Interval(8, 10, 4, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkNoCollisions(t, pieces)
	got := totals(pieces)
	for id := 0; id < 5; id++ {
		if math.Abs(got[id]-1.6) > 1e-9 {
			t.Errorf("task %d packed %g, want 1.6", id, got[id])
		}
	}
	// All pieces inside [8,10].
	for _, p := range pieces {
		if p.Start < 8-1e-12 || p.End > 10+1e-12 {
			t.Errorf("piece %+v escapes [8,10]", p)
		}
	}
	// Exactly one task should wrap per boundary; total piece count is
	// 5 tasks + 3 wraps = 8.
	if len(pieces) != 8 {
		t.Errorf("piece count = %d, want 8 (three wrapped tasks)", len(pieces))
	}
}

func TestSectionVDDERPacking(t *testing.T) {
	// Fig. 5(b): allocations in [12,14] after DER-based allocation,
	// in descending-DER order: τ2=2, τ5=1.9231, τ3=1.5385, τ6=1.3846,
	// τ4=1.1538.
	reqs := []Request{
		{1, 2}, {4, 1.9231}, {2, 1.5385}, {5, 1.3846}, {3, 1.1538},
	}
	pieces, err := Interval(12, 14, 4, reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkNoCollisions(t, pieces)
	got := totals(pieces)
	for _, r := range reqs {
		if math.Abs(got[r.Task]-r.Time) > 1e-9 {
			t.Errorf("task %d packed %g, want %g", r.Task, got[r.Task], r.Time)
		}
	}
}

func TestExactFit(t *testing.T) {
	// Requests exactly filling each core leave no wraps.
	reqs := []Request{{0, 2}, {1, 2}, {2, 2}}
	pieces, err := Interval(0, 2, 3, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 3 {
		t.Fatalf("pieces = %v", pieces)
	}
	cores := map[int]bool{}
	for _, p := range pieces {
		if p.End-p.Start != 2 {
			t.Errorf("piece %+v should span the subinterval", p)
		}
		cores[p.Core] = true
	}
	if len(cores) != 3 {
		t.Errorf("each task gets its own core, saw %v", cores)
	}
}

func TestZeroRequestsSkipped(t *testing.T) {
	reqs := []Request{{0, 0}, {1, 1}, {2, 0}}
	pieces, err := Interval(0, 2, 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 1 || pieces[0].Task != 1 {
		t.Errorf("pieces = %v", pieces)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Interval(5, 5, 2, nil); err == nil {
		t.Error("empty subinterval should fail")
	}
	if _, err := Interval(0, 2, 0, nil); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := Interval(0, 2, 2, []Request{{0, -1}}); err == nil {
		t.Error("negative time should fail")
	}
	if _, err := Interval(0, 2, 2, []Request{{0, 3}}); err == nil {
		t.Error("over-length request should fail")
	}
	if _, err := Interval(0, 2, 2, []Request{{0, 2}, {1, 2}, {2, 1}}); err == nil {
		t.Error("over-capacity total should fail")
	}
}

func TestWrapPiecesDisjoint(t *testing.T) {
	// A task that wraps must have its two pieces disjoint in time.
	reqs := []Request{{0, 1.5}, {1, 1.5}} // second wraps on 2 cores of length 2? No: fits.
	pieces, err := Interval(0, 2, 1, []Request{{0, 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	_ = pieces
	// Force a wrap: three tasks of 1.5 on 3 cores of length 2: task 1
	// wraps at 2.0 after cursor 1.5.
	pieces, err = Interval(0, 2, 3, append(reqs, Request{2, 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	checkNoCollisions(t, pieces)
}

func TestPackingProperty(t *testing.T) {
	// Random feasible allocations always pack without collisions and
	// conserve each task's time.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(6)
		length := 0.5 + rng.Float64()*10
		n := 1 + rng.Intn(3*m)
		// Draw times in [0, length] then rescale if over capacity.
		reqs := make([]Request, n)
		var sum float64
		for i := range reqs {
			reqs[i] = Request{Task: i, Time: rng.Float64() * length}
			sum += reqs[i].Time
		}
		if cap := float64(m) * length; sum > cap {
			scale := cap / sum * (1 - 1e-12)
			for i := range reqs {
				reqs[i].Time *= scale
			}
		}
		pieces, err := Interval(0, length, m, reqs)
		if err != nil {
			return false
		}
		got := totals(pieces)
		for _, r := range reqs {
			if math.Abs(got[r.Task]-r.Time) > 1e-6 {
				return false
			}
		}
		// Collision freedom.
		byCore := map[int][]Piece{}
		byTask := map[int][]Piece{}
		for _, p := range pieces {
			if p.Start < -1e-9 || p.End > length+1e-9 {
				return false
			}
			byCore[p.Core] = append(byCore[p.Core], p)
			byTask[p.Task] = append(byTask[p.Task], p)
		}
		noOverlap := func(ps []Piece) bool {
			sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
			for i := 1; i < len(ps); i++ {
				if ps[i].Start < ps[i-1].End-1e-9 {
					return false
				}
			}
			return true
		}
		for _, ps := range byCore {
			if !noOverlap(ps) {
				return false
			}
		}
		for _, ps := range byTask {
			if !noOverlap(ps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAtMostTwoPiecesPerTask(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.Intn(4)
		n := m + 1 + rng.Intn(m)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Task: i, Time: float64(m) * 2 / float64(n) * (0.5 + rng.Float64()*0.5)}
			if reqs[i].Time > 2 {
				reqs[i].Time = 2
			}
		}
		var sum float64
		for _, r := range reqs {
			sum += r.Time
		}
		if sum > float64(m)*2 {
			continue
		}
		pieces, err := Interval(0, 2, m, reqs)
		if err != nil {
			t.Fatal(err)
		}
		count := map[int]int{}
		for _, p := range pieces {
			count[p.Task]++
		}
		for id, c := range count {
			if c > 2 {
				t.Fatalf("task %d split into %d pieces; Algorithm 1 allows at most 2", id, c)
			}
		}
	}
}

func BenchmarkInterval(b *testing.B) {
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Task: i, Time: 0.9}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Interval(0, 2, 8, reqs); err != nil {
			b.Fatal(err)
		}
	}
}
