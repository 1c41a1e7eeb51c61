package easched

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/task"
)

// Edge-case behavior of the public API: degenerate task sets must be
// rejected with useful errors, and the boundary instances (one task,
// fewer tasks than cores, one task eligible everywhere) must produce
// schedules that survive the universal validator.

func TestScheduleRejectsDegenerateInputs(t *testing.T) {
	model := NewModel(3, 0)
	some := MustTasks(T(0, 4, 10))
	cases := []struct {
		name  string
		tasks TaskSet
		cores int
	}{
		{"empty task set", TaskSet{}, 4},
		{"nil task set", nil, 4},
		{"zero cores", some, 0},
		{"negative cores", some, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Solve(context.Background(), Spec{Tasks: c.tasks, Cores: c.cores, Model: model}); err == nil {
				t.Error("expected an error")
			}
		})
	}
	if _, err := Solve(context.Background(), Spec{Tasks: TaskSet{}, Cores: 4, Model: model}); !errors.Is(err, task.ErrEmptySet) {
		t.Errorf("empty-set error %v should wrap task.ErrEmptySet", err)
	}
}

func TestNewTasksRejectsZeroWidthWindow(t *testing.T) {
	cases := []struct {
		name   string
		triple [3]float64
	}{
		{"release equals deadline", T(5, 1, 5)},
		{"deadline before release", T(5, 1, 3)},
		{"zero work", T(0, 0, 10)},
		{"negative work", T(0, -2, 10)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewTasks(c.triple); err == nil {
				t.Error("expected an error")
			}
		})
	}
}

func TestSingleTaskRunsAtIdealFrequency(t *testing.T) {
	// Alone on the machine, a task gets its whole window: f = C/(D−R)
	// (no static power, so no critical-frequency floor) and
	// E = C·f^(α−1) = 6·(6/12)² = 1.5.
	tasks := MustTasks(T(2, 6, 14))
	model := NewModel(3, 0)
	for _, method := range []SolveMethod{MethodEven, MethodDER} {
		res := mustSolve(t, Spec{Tasks: tasks, Cores: 4, Model: model, Method: method}).Plan
		if math.Abs(res.FinalEnergy-1.5) > 1e-9 {
			t.Errorf("%v: energy %.6f, want 1.5", method, res.FinalEnergy)
		}
		if f := res.FinalFrequencies[0]; math.Abs(f-0.5) > 1e-9 {
			t.Errorf("%v: frequency %.6f, want 0.5", method, f)
		}
		if vs := Verify(res.Final, tasks, 4, model); len(vs) > 0 {
			t.Errorf("%v: %v", method, vs)
		}
	}
}

func TestFewerTasksThanCoresIsUnconstrained(t *testing.T) {
	// With n ≤ m no subinterval is heavy, so every task receives its
	// whole window and the final energy equals the ideal plan's.
	tasks := MustTasks(
		T(0, 8, 10),
		T(2, 14, 18),
		T(4, 8, 16),
	)
	model := NewModel(3, 0.05)
	var want float64
	for _, tk := range tasks {
		want += model.TaskEnergy(tk.Work, tk.Window())
	}
	res := mustSolve(t, Spec{Tasks: tasks, Cores: len(tasks), Model: model}).Plan
	if math.Abs(res.FinalEnergy-want) > 1e-9 {
		t.Errorf("energy %.6f, want ideal %.6f", res.FinalEnergy, want)
	}
	if vs := Verify(res.Final, tasks, len(tasks), model); len(vs) > 0 {
		t.Errorf("validation: %v", vs)
	}
}

func TestTaskSpanningEverySubinterval(t *testing.T) {
	// τ1 covers the whole horizon while short tasks chop it into many
	// subintervals; τ1 is eligible in every one of them.
	tasks := MustTasks(
		T(0, 6, 30),
		T(2, 2, 5),
		T(8, 3, 12),
		T(15, 2, 18),
		T(24, 4, 29),
	)
	model := NewModel(3, 0.1)
	res := mustSolve(t, Spec{Tasks: tasks, Cores: 2, Model: model}).Plan
	if got, want := len(res.Decomp.SubsOf(0)), res.Decomp.NumSubs(); got != want {
		t.Errorf("spanning task eligible in %d of %d subintervals", got, want)
	}
	if vs := Verify(res.Final, tasks, 2, model); len(vs) > 0 {
		t.Errorf("validation: %v", vs)
	}
	done := res.Final.CompletedWork()
	for _, tk := range tasks {
		if math.Abs(done[tk.ID]-tk.Work) > 1e-6 {
			t.Errorf("task %d completed %g of %g", tk.ID, done[tk.ID], tk.Work)
		}
	}
}
