package easched

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestFeasibilityAPI(t *testing.T) {
	tasks := MustTasks(T(0, 4, 12), T(2, 2, 10), T(4, 4, 8))
	ok, err := Feasible(tasks, 1, 1.0)
	if err != nil || !ok {
		t.Errorf("Fig.1 instance feasible at speed 1 on one core: ok=%v err=%v", ok, err)
	}
	ok, err = Feasible(tasks, 1, 0.9)
	if err != nil || ok {
		t.Errorf("Fig.1 instance infeasible at 0.9: ok=%v err=%v", ok, err)
	}
	s, err := MinimalSpeed(tasks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1.0) > 1e-6 {
		t.Errorf("MinimalSpeed = %g, want 1.0", s)
	}
}

func TestPartitionedAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tasks, err := GenerateTasks(rng, PaperWorkload(10))
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(3, 0.1)
	part := mustSolve(t, Spec{Tasks: tasks, Cores: 3, Model: model, Method: MethodPartitioned})
	sched, energy := part.Schedule, part.Energy
	if energy <= 0 {
		t.Errorf("energy = %g", energy)
	}
	rep, err := Simulate(sched, model)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("partitioned schedule violations: %v", rep.Violations)
	}
	if rep.Migrations != 0 {
		t.Errorf("partitioned schedule migrated %d times", rep.Migrations)
	}
}

func TestOnlineAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tasks, err := GenerateTasks(rng, PaperWorkload(10))
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(3, 0.05)
	res := mustSolve(t, Spec{Tasks: tasks, Cores: 4, Model: model, Method: MethodOnline}).Online
	if len(res.MissedTasks) != 0 {
		t.Errorf("online missed %v", res.MissedTasks)
	}
	off := mustSolve(t, Spec{Tasks: tasks, Cores: 4, Model: model}).Plan
	if res.Energy < off.FinalEnergy*0.9 {
		t.Errorf("online energy %.4f suspiciously below offline %.4f", res.Energy, off.FinalEnergy)
	}
}

func TestFixedSpeedEDFAPI(t *testing.T) {
	tasks := MustTasks(T(0, 4, 10))
	res, err := ScheduleFixedSpeedEDF(tasks, 1, NewModel(3, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissedTasks) != 0 || res.Energy <= 0 {
		t.Errorf("unexpected result %+v", res)
	}
}

func TestQuantizeSplitAPI(t *testing.T) {
	tab := IntelXScale()
	model, err := FitTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	tasks, err := GenerateTasks(rng, XScaleWorkload(10))
	if err != nil {
		t.Fatal(err)
	}
	res := mustSolve(t, Spec{Tasks: tasks, Cores: 4, Model: model}).Plan
	up := Quantize(res.Final, tab)
	split := QuantizeSplit(res.Final, tab)
	if split.Energy > up.Energy+1e-6 {
		t.Errorf("split %.2f worse than round-up %.2f", split.Energy, up.Energy)
	}
}

func TestExportAPI(t *testing.T) {
	tasks := MustTasks(T(0, 4, 12), T(2, 2, 10), T(4, 4, 8))
	res := mustSolve(t, Spec{Tasks: tasks, Cores: 2, Model: NewModel(3, 0.01)}).Plan
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res.Final, 1e6); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("trace output missing traceEvents")
	}
	buf.Reset()
	if err := WriteScheduleCSV(&buf, res.Final); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "task,core,start") {
		t.Errorf("csv header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

func TestRunGovernorAPI(t *testing.T) {
	tasks := MustTasks(T(0, 4000, 100))
	res, err := RunGovernor(tasks, 1, IntelXScale(), GovernorPerformance, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissedTasks) != 0 {
		t.Errorf("performance governor missed %v", res.MissedTasks)
	}
	// 4000 Mcycles at 1000 MHz @ 1600 mW = 6400 mJ.
	if math.Abs(res.Energy-6400) > 1e-6 {
		t.Errorf("energy = %g, want 6400", res.Energy)
	}
	ond, err := RunGovernor(tasks, 1, IntelXScale(), GovernorOndemand, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ond.Energy > res.Energy {
		t.Errorf("ondemand %g should not exceed performance %g on a light task", ond.Energy, res.Energy)
	}
}

func TestScheduleCappedAPI(t *testing.T) {
	tab := IntelXScale()
	model, err := FitTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	p := XScaleWorkload(40)
	p.ReleaseHi = 100
	p.IntensityLo = 0.5
	rng := rand.New(rand.NewSource(8))
	tasks, err := GenerateTasks(rng, p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Solve(context.Background(), Spec{
		Tasks: tasks, Cores: 4, Model: model, Method: MethodCapped, FrequencyCap: tab.MaxFrequency(),
	})
	if errors.Is(err, ErrInfeasibleAtCap) {
		t.Skip("instance infeasible at f_max")
	}
	if err != nil {
		t.Fatal(err)
	}
	a := Quantize(rep.Capped.Schedule, tab)
	if a.Missed {
		t.Errorf("capped schedule missed %v", a.MissedTasks)
	}
}
