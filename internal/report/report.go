// Package report renders experiment results as GitHub-flavored Markdown,
// so regenerated evaluations can be dropped straight into EXPERIMENTS.md
// or a pull request. Each result becomes a section with a table (one row
// per sweep point, one column per series, miss-rate columns when present)
// followed by the experiment's notes.
package report

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/experiments"
)

// Markdown renders one result as a Markdown section.
func Markdown(r *experiments.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)

	missCols := missColumns(r)
	// Header.
	b.WriteString("| " + r.XLabel + " |")
	for _, s := range r.SeriesOrder {
		b.WriteString(" " + s + " |")
	}
	for _, s := range missCols {
		b.WriteString(" miss(" + s + ") |")
	}
	b.WriteString("\n|")
	for i := 0; i < 1+len(r.SeriesOrder)+len(missCols); i++ {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	// Rows.
	for _, p := range r.Points {
		b.WriteString("| " + p.Label + " |")
		for _, s := range r.SeriesOrder {
			if sum, ok := p.Series[s]; ok && !math.IsNaN(sum.Mean) {
				fmt.Fprintf(&b, " %.4f |", sum.Mean)
			} else {
				b.WriteString(" — |")
			}
		}
		for _, s := range missCols {
			if mr, ok := p.MissRate[s]; ok && !math.IsNaN(mr) {
				fmt.Fprintf(&b, " %.3f |", mr)
			} else {
				b.WriteString(" — |")
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n")
	}
	return b.String()
}

// missColumns mirrors the text renderer's ordering: series order first,
// then extra keys (e.g. "infeasible") alphabetically.
func missColumns(r *experiments.Result) []string {
	any := false
	for _, p := range r.Points {
		if len(p.MissRate) > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	var cols []string
	seen := map[string]bool{}
	for _, s := range r.SeriesOrder {
		for _, p := range r.Points {
			if _, ok := p.MissRate[s]; ok {
				cols = append(cols, s)
				seen[s] = true
				break
			}
		}
	}
	var extra []string
	for _, p := range r.Points {
		for k := range p.MissRate {
			if !seen[k] {
				seen[k] = true
				extra = append(extra, k)
			}
		}
	}
	// Sort extras without importing sort twice... small slice insertion.
	for i := 1; i < len(extra); i++ {
		for j := i; j > 0 && extra[j] < extra[j-1]; j-- {
			extra[j], extra[j-1] = extra[j-1], extra[j]
		}
	}
	return append(cols, extra...)
}
