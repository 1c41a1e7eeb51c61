package task

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func TestGenerateTracePoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, err := GenerateTrace(rng, ArrivalParams{Process: ArrivalPoisson, Batches: 40, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 40 {
		t.Fatalf("batches = %d", len(tr))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, a := range tr {
		for _, tk := range a.Tasks {
			if tk.Release != a.At {
				t.Fatalf("batch %d: task releases at %g, arrives at %g", i, tk.Release, a.At)
			}
		}
	}
}

func TestGenerateTraceBurstyClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, err := GenerateTrace(rng, ArrivalParams{Process: ArrivalBursty, Batches: 60, Rate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Bursty traces must actually cluster: a meaningful share of
	// consecutive inter-arrival gaps is tiny relative to the mean gap.
	var mean float64
	span := tr[len(tr)-1].At - tr[0].At
	mean = span / float64(len(tr)-1)
	small := 0
	for i := 1; i < len(tr); i++ {
		if tr[i].At-tr[i-1].At < mean/4 {
			small++
		}
	}
	// A Poisson process would put ~22% of gaps below mean/4; storms
	// should push well past that.
	if small < (len(tr)-1)*2/5 {
		t.Errorf("only %d/%d gaps below mean/4 — not bursty", small, len(tr)-1)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, err := GenerateTrace(rng, ArrivalParams{Batches: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", tr, back)
	}
}

func TestTraceValidateRejects(t *testing.T) {
	good := Set{{ID: 0, Release: 1, Work: 1, Deadline: 5}}
	cases := map[string]Trace{
		"negative at":   {{At: -1, Tasks: good}},
		"out of order":  {{At: 5, Tasks: good.Clone()}, {At: 1, Tasks: Set{{ID: 0, Release: 1, Work: 1, Deadline: 5}}}},
		"empty batch":   {{At: 0}},
		"bad task":      {{At: 0, Tasks: Set{{ID: 0, Release: 0, Work: -1, Deadline: 5}}}},
		"dead on entry": {{At: 6, Tasks: good}},
	}
	for name, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestTraceDeterminism(t *testing.T) {
	p := ArrivalParams{Process: ArrivalBursty, Batches: 12, Regime: RegimeHarmonic}
	a, err := GenerateTrace(rand.New(rand.NewSource(5)), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(rand.New(rand.NewSource(5)), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("nondeterministic trace generation")
	}
}
