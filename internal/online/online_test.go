package online

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/interval"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

func TestReplanDERNeverMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(15))
		m := 2 + rng.Intn(4)
		pm := power.Unit(3, rng.Float64()*0.2)
		res, err := ReplanDER(ts, m, pm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(res.MissedTasks) != 0 {
			t.Errorf("trial %d: online replanning missed %v", trial, res.MissedTasks)
		}
		done := res.Schedule.CompletedWork()
		for _, tk := range ts {
			if done[tk.ID] < tk.Work*(1-1e-6) {
				t.Errorf("trial %d: task %d completed %g of %g", trial, tk.ID, done[tk.ID], tk.Work)
			}
		}
		if vs := check.Validate(res.Schedule, ts, m, pm); len(vs) > 0 {
			t.Errorf("trial %d: online schedule fails validation: %v", trial, vs)
		}
	}
}

func TestReplanDERReplansOncePerDistinctRelease(t *testing.T) {
	ts := task.MustNew(
		[3]float64{0, 2, 20},
		[3]float64{0, 2, 25},
		[3]float64{5, 2, 30},
		[3]float64{9, 2, 35},
	)
	res, err := ReplanDER(ts, 2, power.Unit(3, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans != 3 {
		t.Errorf("replans = %d, want 3 (distinct releases 0, 5, 9)", res.Replans)
	}
}

func TestReplanDERMatchesOfflineWhenSimultaneous(t *testing.T) {
	// If every task is released at the same time, the online scheduler
	// has full information and must equal the offline result.
	ts := task.MustNew(
		[3]float64{0, 8, 10},
		[3]float64{0, 14, 18},
		[3]float64{0, 8, 16},
		[3]float64{0, 4, 14},
		[3]float64{0, 10, 20},
	)
	pm := power.Unit(3, 0.05)
	onl, err := ReplanDER(ts, 4, pm)
	if err != nil {
		t.Fatal(err)
	}
	off := core.MustSchedule(ts, 4, pm, alloc.DER, core.Options{Tolerance: 1e-9})
	if math.Abs(onl.Energy-off.FinalEnergy) > 1e-6*off.FinalEnergy {
		t.Errorf("online %.6f != offline %.6f with simultaneous releases", onl.Energy, off.FinalEnergy)
	}
	if onl.Replans != 1 {
		t.Errorf("replans = %d, want 1", onl.Replans)
	}
}

func TestOnlinePaysNonClairvoyancePremiumModestly(t *testing.T) {
	// Online energy is generally ≥ offline, but the re-planning scheme
	// should stay within a modest factor on the paper's workloads.
	rng := rand.New(rand.NewSource(23))
	var on, off float64
	for trial := 0; trial < 10; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(12))
		pm := power.Unit(3, 0.1)
		o, err := ReplanDER(ts, 4, pm)
		if err != nil {
			t.Fatal(err)
		}
		f := core.MustSchedule(ts, 4, pm, alloc.DER, core.Options{Tolerance: 1e-9})
		on += o.Energy
		off += f.FinalEnergy
	}
	if on < off*0.95 {
		t.Errorf("online total %.4f suspiciously below offline %.4f", on, off)
	}
	if on > off*2.0 {
		t.Errorf("online total %.4f more than 2x offline %.4f", on, off)
	}
}

func TestFixedSpeedEDFFeasibleAtMinSpeed(t *testing.T) {
	// Global EDF at (slightly above) the minimal feasible speed is
	// optimal for migratory scheduling on identical cores... EDF is NOT
	// optimal on multiprocessors in general, so allow misses at the bound
	// but require none with generous headroom.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(10))
		m := 2 + rng.Intn(3)
		d := interval.MustDecompose(ts, 1e-9)
		s, _, err := feas.MinSpeed(d, m, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := FixedSpeedEDF(ts, m, power.Unit(3, 0), 2*s)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.MissedTasks) != 0 {
			t.Errorf("trial %d: EDF at 2x min speed missed %v", trial, res.MissedTasks)
		}
	}
}

func TestFixedSpeedEDFDetectsMisses(t *testing.T) {
	// Two simultaneous unit-window tasks on one core at speed 1: only one
	// can make it.
	ts := task.MustNew(
		[3]float64{0, 1, 1},
		[3]float64{0, 1, 1},
	)
	res, err := FixedSpeedEDF(ts, 1, power.Unit(3, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissedTasks) != 1 {
		t.Errorf("missed = %v, want exactly one task", res.MissedTasks)
	}
}

func TestFixedSpeedEDFEnergy(t *testing.T) {
	// One task, speed 2: energy = p(2)·(C/2).
	ts := task.MustNew([3]float64{0, 4, 10})
	pm := power.Unit(3, 0.5)
	res, err := FixedSpeedEDF(ts, 1, pm, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := (8 + 0.5) * 2
	if math.Abs(res.Energy-want) > 1e-9 {
		t.Errorf("energy = %g, want %g", res.Energy, want)
	}
	if len(res.MissedTasks) != 0 {
		t.Errorf("unexpected misses %v", res.MissedTasks)
	}
}

func TestFixedSpeedEDFRaceToIdleCostsMore(t *testing.T) {
	// Racing at a high fixed speed must cost more than the DVFS
	// re-planning policy when static power is small.
	rng := rand.New(rand.NewSource(41))
	ts := task.MustGenerate(rng, task.PaperDefaults(12))
	pm := power.Unit(3, 0.01)
	d := interval.MustDecompose(ts, 1e-9)
	s, _, err := feas.MinSpeed(d, 4, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	race, err := FixedSpeedEDF(ts, 4, pm, math.Max(2*s, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	dvfs, err := ReplanDER(ts, 4, pm)
	if err != nil {
		t.Fatal(err)
	}
	if dvfs.Energy >= race.Energy {
		t.Errorf("DVFS %.4f should beat race-to-idle %.4f", dvfs.Energy, race.Energy)
	}
}

func TestInputValidation(t *testing.T) {
	ts := task.Fig1Example()
	if _, err := ReplanDER(ts, 0, power.Unit(3, 0)); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := ReplanDER(task.Set{}, 2, power.Unit(3, 0)); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := FixedSpeedEDF(ts, 2, power.Unit(3, 0), 0); err == nil {
		t.Error("zero speed should fail")
	}
	if _, err := FixedSpeedEDF(ts, 2, power.Unit(1, 0), 1); err == nil {
		t.Error("bad model should fail")
	}
}

func BenchmarkFixedSpeedEDF(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ts := task.MustGenerate(rng, task.PaperDefaults(20))
	pm := power.Unit(3, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FixedSpeedEDF(ts, 4, pm, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplanDERPooledSolversConcurrent runs ReplanDER from several
// goroutines at once on instances of different sizes and core counts,
// so that pooled replanners move between runs of every shape, and checks
// each schedule bit for bit against a run with a fresh replanner. Each
// checked schedule is recycled, so later one-release runs build into
// schedules that other workers' runs planned before. Run it under -race.
func TestReplanDERPooledSolversConcurrent(t *testing.T) {
	pm := power.Unit(3, 0.1)
	for w := 0; w < 4; w++ {
		seed := int64(50 + w)
		t.Run(fmt.Sprint("worker", w), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 25; trial++ {
				ts := task.MustGenerate(rng, task.PaperDefaults(2+rng.Intn(24)))
				m := 1 + rng.Intn(8)
				got, err := ReplanDER(ts, m, pm)
				if err != nil {
					t.Fatal(err)
				}
				want, err := new(replanner).run(ts, m, pm)
				if err != nil {
					t.Fatal(err)
				}
				if got.Replans != want.Replans || math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
					!slices.Equal(got.Schedule.Segments, want.Schedule.Segments) {
					t.Fatalf("n=%d m=%d: pooled run differs from a fresh replanner's: %d replans, energy %v; want %d, %v",
						len(ts), m, got.Replans, got.Energy, want.Replans, want.Energy)
				}
				schedule.Recycle(got.Schedule)
			}
		})
	}
}

// A run with one release plans every task once, so its schedule is that
// plan segment for segment: no planned segment starts before the release
// or is empty, which is what lets the replanner build the plan straight
// into the schedule it returns.
func TestReplanDERSimultaneousIsPlan(t *testing.T) {
	pm := power.Unit(3, 0.1)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		ts := task.MustGenerate(rng, task.PaperDefaults(2+rng.Intn(24)))
		t0 := 0.25 + float64(trial)
		residual := make(task.Set, len(ts))
		for i := range ts {
			ts[i].Release, ts[i].Deadline = t0, ts[i].Deadline+t0
			residual[i] = task.Task{ID: i, Release: t0, Work: ts[i].Work, Deadline: ts[i].Deadline}
		}
		m := 1 + rng.Intn(8)
		got, err := ReplanDER(ts, m, pm)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.NewSolver().Final(residual, m, pm, alloc.DER, core.Options{Tolerance: 1e-9, SkipValidation: true})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Schedule.Segments, plan.Final.Segments) {
			t.Fatalf("n=%d m=%d: the run's schedule is not its one plan", len(ts), m)
		}
		for _, seg := range plan.Final.Segments {
			if seg.Start < t0 || seg.End <= seg.Start {
				t.Fatalf("n=%d m=%d: plan segment %v starts before %g or is empty", len(ts), m, seg, t0)
			}
		}
	}
}
