// Package yds implements the classic Yao-Demers-Shenker optimal offline
// algorithm for energy-minimal scheduling of aperiodic tasks on a
// uniprocessor (the Related Work baseline, [23] in the paper, illustrated
// by Fig. 1 and Fig. 2(a)).
//
// The algorithm repeatedly finds the interval of greatest intensity
// C(t1,t2)/(t2−t1) — where C(t1,t2) sums the work of tasks entirely
// inside [t1,t2] — fixes the processor speed to that intensity there,
// removes the involved tasks, contracts the timeline, and repeats. The
// resulting speed profile, executed with EDF, minimizes Σ p(f_i)·t_i for
// any convex power function with p(0) = 0.
package yds

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/task"
)

// Band is one maximal constant-speed region of the computed profile, in
// original (uncontracted) time.
type Band struct {
	Start, End float64
	Speed      float64
}

// Profile is the optimal speed profile, as non-overlapping bands in
// ascending time order. Gaps between bands are idle.
type Profile struct {
	Bands []Band
}

// SpeedAt returns the profile speed at time t (0 when idle).
func (p *Profile) SpeedAt(t float64) float64 {
	for _, b := range p.Bands {
		if b.Start <= t && t < b.End {
			return b.Speed
		}
	}
	return 0
}

// timeline maps contracted coordinates back to original time. Each
// segment covers contracted [cLo, cLo+len) ↦ original [oLo, oLo+len).
type timeline struct {
	segs []tseg
}

type tseg struct {
	cLo, oLo, len float64
}

// timelineEps absorbs float jitter from repeated contraction: slivers
// shorter than this are dropped rather than emitted as degenerate bands.
// The lost capacity is far below the schedule validator's tolerance.
const timelineEps = 1e-9

func newTimeline(lo, hi float64) *timeline {
	return &timeline{segs: []tseg{{cLo: 0, oLo: lo, len: hi - lo}}}
}

// preimage returns the original-time intervals of contracted [a, b), and
// removes them from the timeline (shifting later contracted coordinates
// down by b−a).
func (tl *timeline) extract(a, b float64) []Band {
	var out []Band
	var rest []tseg
	shift := b - a
	for _, s := range tl.segs {
		cHi := s.cLo + s.len
		switch {
		case cHi <= a: // entirely before
			rest = append(rest, s)
		case s.cLo >= b: // entirely after: shift down
			rest = append(rest, tseg{cLo: s.cLo - shift, oLo: s.oLo, len: s.len})
		default: // overlaps [a, b)
			lo := math.Max(s.cLo, a)
			hi := math.Min(cHi, b)
			if hi-lo > timelineEps {
				out = append(out, Band{
					Start: s.oLo + (lo - s.cLo),
					End:   s.oLo + (hi - s.cLo),
				})
			}
			if a-s.cLo > timelineEps { // leading remainder stays
				rest = append(rest, tseg{cLo: s.cLo, oLo: s.oLo, len: a - s.cLo})
			}
			if cHi-b > timelineEps { // trailing remainder shifts down
				rest = append(rest, tseg{cLo: b - shift, oLo: s.oLo + (b - s.cLo), len: cHi - b})
			}
		}
	}
	tl.segs = rest
	return out
}

// ctask is a task in contracted coordinates.
type ctask struct {
	id      int
	r, d, c float64
}

// BuildProfile computes the YDS speed profile for the task set.
func BuildProfile(ts task.Set) (*Profile, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	lo, hi := ts.Span()
	tl := newTimeline(lo, hi)
	rem := make([]ctask, len(ts))
	for i, t := range ts {
		rem[i] = ctask{id: t.ID, r: t.Release - lo, d: t.Deadline - lo, c: t.Work}
	}
	var bands []Band
	for len(rem) > 0 {
		t1, t2, speed, inside := criticalInterval(rem)
		if speed <= 0 {
			return nil, fmt.Errorf("yds: degenerate critical interval")
		}
		for _, b := range tl.extract(t1, t2) {
			bands = append(bands, Band{Start: b.Start, End: b.End, Speed: speed})
		}
		// Remove the critical tasks, contract the remaining windows.
		shift := t2 - t1
		next := rem[:0]
		for _, ct := range rem {
			if inside[ct.id] {
				continue
			}
			if ct.r > t1 {
				ct.r = math.Max(t1, ct.r-shift)
			}
			if ct.d > t1 {
				ct.d = math.Max(t1, ct.d-shift)
			}
			next = append(next, ct)
		}
		rem = next
	}
	sort.Slice(bands, func(i, j int) bool { return bands[i].Start < bands[j].Start })
	return &Profile{Bands: bands}, nil
}

// criticalInterval finds the max-intensity interval over the remaining
// tasks in contracted coordinates. Candidate endpoints are the distinct
// releases (left) and deadlines (right).
func criticalInterval(rem []ctask) (t1, t2, speed float64, inside map[int]bool) {
	best := -1.0
	for _, a := range rem {
		for _, b := range rem {
			if b.d <= a.r {
				continue
			}
			var sum float64
			for _, ct := range rem {
				if ct.r >= a.r && ct.d <= b.d {
					sum += ct.c
				}
			}
			if sum == 0 {
				continue
			}
			g := sum / (b.d - a.r)
			if g > best {
				best = g
				t1, t2 = a.r, b.d
			}
		}
	}
	speed = best
	inside = make(map[int]bool)
	for _, ct := range rem {
		if ct.r >= t1 && ct.d <= t2 {
			inside[ct.id] = true
		}
	}
	return t1, t2, speed, inside
}

// Schedule runs EDF over the YDS profile and returns the realized
// uniprocessor schedule, checked with the universal validator.
func Schedule(ts task.Set) (*schedule.Schedule, *Profile, error) {
	sched, prof, err := Build(ts)
	if err != nil {
		return nil, nil, err
	}
	// YDS has no power model and the check compares no energy, so the
	// zero model serves.
	if v := check.Validate(sched, ts, 1, power.Model{}); len(v) > 0 {
		return nil, nil, fmt.Errorf("yds: realized schedule infeasible: %v", v[0])
	}
	return sched, prof, nil
}

// Build is Schedule without the feasibility check, for callers that
// check the schedule they take: the registry runner, which
// check.Entry.RunVerified audits, and partition, which checks the
// schedule it assembles from one YDS run per core.
func Build(ts task.Set) (*schedule.Schedule, *Profile, error) {
	prof, err := BuildProfile(ts)
	if err != nil {
		return nil, nil, err
	}
	sched := schedule.New(ts, 1)

	remaining := make([]float64, len(ts))
	for i, t := range ts {
		remaining[i] = t.Work
	}
	// Event-driven EDF: within each band, repeatedly pick the released
	// unfinished task with the earliest deadline; advance to the next
	// release, task completion, or band end.
	releases := append([]float64(nil), ts.TimePoints(0)...)
	for _, band := range prof.Bands {
		t := band.Start
		for t < band.End-1e-12 {
			cur := -1
			for i, tk := range ts {
				if remaining[i] <= 1e-12 || tk.Release > t+1e-12 {
					continue
				}
				if cur == -1 || tk.Deadline < ts[cur].Deadline {
					cur = i
				}
			}
			if cur == -1 {
				// Nothing released yet inside the band: jump to the next
				// release.
				nxt := band.End
				for _, r := range releases {
					if r > t+1e-12 && r < nxt {
						nxt = r
					}
				}
				t = nxt
				continue
			}
			end := band.End
			for _, r := range releases {
				if r > t+1e-12 && r < end {
					end = r
					break
				}
			}
			finish := t + remaining[cur]/band.Speed
			if finish < end {
				end = finish
			}
			sched.Add(schedule.Segment{Task: cur, Core: 0, Start: t, End: end, Frequency: band.Speed})
			remaining[cur] -= (end - t) * band.Speed
			t = end
		}
	}
	return sched, prof, nil
}

// Energy returns the energy of the YDS schedule under the given model.
// YDS is provably optimal only for p(0) = 0 models (no static power); it
// is still well-defined — and used as a baseline — otherwise.
func Energy(ts task.Set, m power.Model) (float64, error) {
	sched, _, err := Schedule(ts)
	if err != nil {
		return 0, err
	}
	return sched.Energy(m), nil
}
