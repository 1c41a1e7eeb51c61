package report

import (
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func sample() *experiments.Result {
	return &experiments.Result{
		ID: "fig6", Title: "NEC vs p0", XLabel: "p0",
		SeriesOrder: []string{"F1", "F2"},
		Points: []experiments.Point{
			{Label: "0.00", Series: map[string]stats.Summary{
				"F1": {Mean: 1.75}, "F2": {Mean: 1.07},
			}},
			{Label: "0.20", Series: map[string]stats.Summary{
				"F1": {Mean: 1.38}, "F2": {Mean: 1.05},
			}},
		},
		Notes: []string{"shape matches the paper"},
	}
}

func TestMarkdownStructure(t *testing.T) {
	md := Markdown(sample())
	for _, frag := range []string{
		"### fig6 — NEC vs p0",
		"| p0 | F1 | F2 |",
		"|---|---|---|",
		"| 0.00 | 1.7500 | 1.0700 |",
		"| 0.20 | 1.3800 | 1.0500 |",
		"> shape matches the paper",
	} {
		if !strings.Contains(md, frag) {
			t.Errorf("markdown missing %q:\n%s", frag, md)
		}
	}
}

func TestMarkdownMissColumns(t *testing.T) {
	r := sample()
	r.Points[0].MissRate = map[string]float64{"F2": 0.1, "infeasible": 0.05}
	r.Points[1].MissRate = map[string]float64{"F2": 0.0, "infeasible": 0.0}
	md := Markdown(r)
	if !strings.Contains(md, "miss(F2)") {
		t.Errorf("missing miss column:\n%s", md)
	}
	if !strings.Contains(md, "miss(infeasible)") {
		t.Errorf("missing extra miss column:\n%s", md)
	}
	// Extra columns come after series columns.
	if strings.Index(md, "miss(F2)") > strings.Index(md, "miss(infeasible)") {
		t.Errorf("column order wrong:\n%s", md)
	}
}

func TestMarkdownNaNRendersDash(t *testing.T) {
	r := sample()
	r.Points[0].Series["F1"] = stats.Summary{Mean: math.NaN()}
	md := Markdown(r)
	if !strings.Contains(md, "| — |") {
		t.Errorf("NaN should render as dash:\n%s", md)
	}
	if strings.Contains(md, "NaN") {
		t.Errorf("NaN leaked:\n%s", md)
	}
}

func TestMarkdownTableWellFormed(t *testing.T) {
	// Every row must have the same number of pipes as the header.
	r := sample()
	r.Points[0].MissRate = map[string]float64{"F2": 0.1}
	r.Points[1].MissRate = map[string]float64{"F2": 0.2}
	md := Markdown(r)
	var counts []int
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "|") {
			counts = append(counts, strings.Count(line, "|"))
		}
	}
	if len(counts) < 3 {
		t.Fatalf("table too short:\n%s", md)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Errorf("row %d has %d pipes, header has %d:\n%s", i, counts[i], counts[0], md)
		}
	}
}
