// Package wire holds the JSON types of the schedd HTTP API, shared by
// the server (internal/server) and its clients (cmd/schedload,
// cmd/schedbench), so the two sides cannot drift apart silently.
package wire

import (
	"encoding/json"

	"repro/internal/check"
	"repro/internal/dispatch"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/task"
)

// Version is the wire-format version stamped into responses; clients
// may use it to detect incompatible servers. Bump it on any breaking
// change to the types below.
const Version = 1

// ModelJSON is the wire form of the continuous power model
// p(f) = gamma·f^alpha + p0. A zero gamma defaults to 1 (the paper's
// unit-coefficient convention) so clients can write {"alpha":3,"p0":0.05}.
type ModelJSON struct {
	Gamma float64 `json:"gamma,omitempty"`
	Alpha float64 `json:"alpha"`
	P0    float64 `json:"p0"`
}

// Model converts to the validated internal power model.
func (m ModelJSON) Model() (power.Model, error) {
	pm := power.Model{Gamma: m.Gamma, Alpha: m.Alpha, P0: m.P0}
	if pm.Gamma == 0 {
		pm.Gamma = 1
	}
	if err := pm.Validate(); err != nil {
		return power.Model{}, err
	}
	return pm, nil
}

// ScheduleRequest is the body of POST /v1/schedule (and one item of a
// batch). Tasks use the same {release, work, deadline} representation as
// the task JSON codec; IDs are positional.
type ScheduleRequest struct {
	// Algorithm names a registered scheduler (GET /v1/algorithms).
	Algorithm string `json:"algorithm"`
	// Cores is the core count m ≥ 1.
	Cores int `json:"cores"`
	// Model is the continuous power model.
	Model ModelJSON `json:"model"`
	// Tasks is the aperiodic workload.
	Tasks task.Set `json:"tasks"`
}

// SegmentJSON is one contiguous execution of a task on a core.
type SegmentJSON struct {
	Task      int     `json:"task"`
	Core      int     `json:"core"`
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
	Frequency float64 `json:"frequency"`
}

// ScheduleResponse is the body of a successful POST /v1/schedule.
// schedd encodes it once per solve with EncodeSchedule, which owns the
// field order: it appends the segment array itself between encoding/json's
// "cached" and "elapsed_ms", so those three fields must stay adjacent and
// in this order, and no nested value ahead of them may carry their keys.
type ScheduleResponse struct {
	// Version is the wire-format version (see Version).
	Version   int    `json:"version,omitempty"`
	Algorithm string `json:"algorithm"`
	Cores     int    `json:"cores"`
	// Energy is the scheduler-reported energy of the realized schedule.
	Energy float64 `json:"energy"`
	// BusyTime and Makespan summarize the schedule shape.
	BusyTime float64 `json:"busy_time"`
	Makespan float64 `json:"makespan"`
	// Verified reports that the in-band check.Validate guardrail found
	// no contract violations. It is always true: a schedule that fails
	// the guardrail is never served.
	Verified bool `json:"verified"`
	// Cached is true when the response was served from the solve cache.
	Cached   bool          `json:"cached"`
	Segments []SegmentJSON `json:"segments"`
	// ElapsedMS is the server-side solve (or cache-lookup) time.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Degraded is true when the requested algorithm failed and the
	// schedule was produced by the server's fallback chain instead; the
	// schedule is still fully valid, just not energy-optimized by the
	// algorithm that was asked for.
	Degraded bool `json:"degraded,omitempty"`
	// FallbackAlgorithm names the algorithm that actually produced a
	// degraded response (set exactly when Degraded is true).
	FallbackAlgorithm string `json:"fallback_algorithm,omitempty"`
	// Sim is the schedule's execution profile (energy, horizon,
	// per-core busy time and utilization, preemption, migration and
	// wake-up counts). schedd takes it from the guardrail's audit
	// (check.Profile); sim.Run computes the same values independently,
	// bit for bit on the registered schedulers' output
	// (TestProfileMatchesSim in internal/server).
	Sim *SimReportJSON `json:"sim,omitempty"`
}

// SimReportJSON is the wire form of a schedule's execution profile.
// One-shot replies and session final reports fill it from the guardrail
// audit's check.Profile (ProfileReport) and never carry violations.
type SimReportJSON struct {
	Energy      float64   `json:"energy"`
	Horizon     float64   `json:"horizon"`
	CoreBusy    []float64 `json:"core_busy"`
	Utilization []float64 `json:"utilization"`
	Preemptions int       `json:"preemptions"`
	Migrations  int       `json:"migrations"`
	Wakeups     int       `json:"wakeups"`
	Violations  []string  `json:"violations,omitempty"`
}

// SimReport converts a report of sim.Run, the independent simulator, to
// the wire form (nil for nil). schedd does not run the simulator; the
// benchmark's layer replay does.
func SimReport(r *sim.Report) *SimReportJSON {
	if r == nil {
		return nil
	}
	return &SimReportJSON{
		Energy:      r.Energy,
		Horizon:     r.Horizon,
		CoreBusy:    r.CoreBusy,
		Utilization: r.Utilization,
		Preemptions: r.Preemptions,
		Migrations:  r.Migrations,
		Wakeups:     r.Wakeups,
		Violations:  r.Violations,
	}
}

// ProfileReport converts the guardrail audit's execution profile to the
// wire form. Where check.Profile equals sim.Run's figures, it marshals
// to the same bytes as SimReport of sim.Run's report.
func ProfileReport(p check.Profile) *SimReportJSON {
	return &SimReportJSON{
		Energy:      p.Energy,
		Horizon:     p.Horizon,
		CoreBusy:    p.CoreBusy,
		Utilization: p.Utilization,
		Preemptions: p.Preemptions,
		Migrations:  p.Migrations,
		Wakeups:     p.Wakeups,
	}
}

// BatchRequest is the body of POST /v1/schedule/batch: independent
// schedule requests solved across the server's worker pool. Each item
// is a ScheduleRequest, kept as the JSON bytes the client sent: they
// key schedd's solve cache, and the router forwards them as they are.
type BatchRequest struct {
	Items []json.RawMessage `json:"items"`
}

// DecodeBatch decodes a BatchRequest body as strictly as Decode, item
// by item. items holds each item's JSON bytes as the client sent them,
// reqs their decodes; the first item that fails to decode fails the
// whole batch.
func DecodeBatch(data []byte) (items []json.RawMessage, reqs []ScheduleRequest, err error) {
	var raw BatchRequest
	if err := Decode(data, &raw); err != nil {
		return nil, nil, err
	}
	reqs = make([]ScheduleRequest, len(raw.Items))
	for i, item := range raw.Items {
		if err := Decode(item, &reqs[i]); err != nil {
			return nil, nil, err
		}
	}
	return raw.Items, reqs, nil
}

// BatchItem is one outcome within a BatchResponse: either a schedule
// response or a per-item error with its HTTP-equivalent status code.
type BatchItem struct {
	// Index of the item within the request.
	Index int `json:"index"`
	// Response is the solve output on success.
	Response *ScheduleResponse `json:"response,omitempty"`
	// Error and Status report a per-item failure; Code and Retryable
	// classify it exactly like the top-level error envelope.
	Error     string    `json:"error,omitempty"`
	Status    int       `json:"status,omitempty"`
	Code      ErrorCode `json:"code,omitempty"`
	Retryable bool      `json:"retryable,omitempty"`
}

// BatchResponse is the body of POST /v1/schedule/batch. The HTTP status
// is 200 whenever the batch itself was processed; per-item failures are
// reported in Items.
type BatchResponse struct {
	Version int         `json:"version,omitempty"`
	Items   []BatchItem `json:"items"`
	// ElapsedMS is the server-side wall time of the whole batch.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// FeasibleRequest is the body of POST /v1/feasible. Speed is the uniform
// frequency ceiling f̂; zero defaults to 1, the paper's normalized f_max.
type FeasibleRequest struct {
	Cores int      `json:"cores"`
	Speed float64  `json:"speed,omitempty"`
	Tasks task.Set `json:"tasks"`
}

// FeasibleResponse reports the max-flow feasibility verdict and the
// minimal feasible uniform speed found by bisection.
type FeasibleResponse struct {
	Feasible bool    `json:"feasible"`
	Speed    float64 `json:"speed"`
	MinSpeed float64 `json:"min_speed"`
}

// AlgorithmsResponse is the body of GET /v1/algorithms.
type AlgorithmsResponse struct {
	Algorithms []string `json:"algorithms"`
}

// SessionStats is a point-in-time summary of a streaming session
// (re-exported from the dispatch runtime; it already carries JSON tags).
type SessionStats = dispatch.Stats

// SessionEvent is one entry of a session's event stream, delivered as
// the data payload of the GET /v1/sessions/{id}/events SSE stream.
type SessionEvent = dispatch.Event

// SessionCreateRequest is the body of POST /v1/sessions.
type SessionCreateRequest struct {
	// ID optionally fixes the session ID instead of letting the server
	// mint one — the cluster router uses this so the ID it hashes for
	// shard placement is the ID the backend serves. Must be unique on
	// the backend (409 otherwise) and satisfy dispatch.ValidID: 1 to 64
	// letters, digits, '-' or '_' (400 otherwise).
	ID string `json:"id,omitempty"`
	// Algorithm names the residual re-planning policy (default ReplanDER).
	Algorithm string `json:"algorithm,omitempty"`
	// Cores is the core count m ≥ 1.
	Cores int `json:"cores"`
	// Model is the continuous power model.
	Model ModelJSON `json:"model"`
	// DebounceMS is the arrival-coalescing window in milliseconds: bursts
	// of arrivals inside it trigger one re-plan. 0 re-plans per batch.
	DebounceMS float64 `json:"debounce_ms,omitempty"`
	// Backlog bounds unfinished tasks before load-shedding (0 = server
	// default, capped by the server's max-tasks limit).
	Backlog int `json:"backlog,omitempty"`
	// SkipRatio disables the clairvoyant-optimum solve at session end
	// (cheaper deletes; the competitive ratio is reported as 0).
	SkipRatio bool `json:"skip_ratio,omitempty"`
}

// SessionCreateResponse is the body of a successful POST /v1/sessions.
type SessionCreateResponse struct {
	Version   int    `json:"version,omitempty"`
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	Cores     int    `json:"cores"`
	Backlog   int    `json:"backlog"`
}

// ArrivalRequest is the body of POST /v1/sessions/{id}/tasks: a batch of
// tasks arriving at virtual time At. Task IDs are positional within the
// batch; the session assigns its own IDs (reported in events).
type ArrivalRequest struct {
	At    float64  `json:"at"`
	Tasks task.Set `json:"tasks"`
}

// ArrivalResponse reports an admission outcome. When every task in the
// batch was shed the HTTP status is 429 and this body is still sent.
type ArrivalResponse struct {
	Admitted int          `json:"admitted"`
	Shed     int          `json:"shed"`
	Stats    SessionStats `json:"stats"`
}

// SessionScheduleResponse is the body of GET /v1/sessions/{id}/schedule:
// the immutable committed prefix plus the current plan suffix. Segment
// task fields are session task IDs (arrival order). schedd writes it
// with WriteSpliced, Committed and Planned spliced in; both are arrays,
// [] when empty.
type SessionScheduleResponse struct {
	Version   int           `json:"version,omitempty"`
	ID        string        `json:"id"`
	Algorithm string        `json:"algorithm"`
	Cores     int           `json:"cores"`
	Stats     SessionStats  `json:"stats"`
	Committed []SegmentJSON `json:"committed"`
	Planned   []SegmentJSON `json:"planned"`
}

// SessionFinalResponse is the body of DELETE /v1/sessions/{id}: the
// session is run to its horizon, accounted against the clairvoyant
// offline optimum, and torn down. Tasks and Segments carry the full
// effective instance and realized schedule so clients can re-validate
// out-of-band. schedd writes it with WriteSpliced, Segments spliced in.
type SessionFinalResponse struct {
	Version          int            `json:"version,omitempty"`
	ID               string         `json:"id"`
	Algorithm        string         `json:"algorithm"`
	Cores            int            `json:"cores"`
	RealizedEnergy   float64        `json:"realized_energy"`
	OptimalEnergy    float64        `json:"optimal_energy,omitempty"`
	CompetitiveRatio float64        `json:"competitive_ratio,omitempty"`
	OptError         string         `json:"opt_error,omitempty"`
	Replans          int            `json:"replans"`
	Commits          int            `json:"commits"`
	Completed        int            `json:"completed"`
	Shed             int            `json:"shed"`
	Missed           []int          `json:"missed,omitempty"`
	Horizon          float64        `json:"horizon"`
	Violations       []string       `json:"violations,omitempty"`
	Tasks            task.Set       `json:"tasks"`
	Segments         []SegmentJSON  `json:"segments"`
	Sim              *SimReportJSON `json:"sim,omitempty"`
}

// SessionSnapshot is the portable state of a live session (re-exported
// from the dispatch runtime; it already carries JSON tags).
type SessionSnapshot = dispatch.Snapshot

// SessionSnapshotResponse is the body of GET /v1/sessions/{id}/snapshot:
// a point-in-time portable capture of the session, restorable on any
// backend via POST /v1/sessions/restore. Taking a snapshot does not
// disturb the session. schedd writes it with WriteSpliced, the
// snapshot's committed prefix spliced in with schedule.Segment's field
// names, null when it is empty.
type SessionSnapshotResponse struct {
	Version  int              `json:"version,omitempty"`
	ID       string           `json:"id"`
	Snapshot *SessionSnapshot `json:"snapshot"`
}

// SessionRestoreRequest is the body of POST /v1/sessions/restore: adopt
// a session from a snapshot under its original ID. Runtime knobs that
// are not part of the portable state (debounce, backlog, skip_ratio)
// are supplied alongside.
type SessionRestoreRequest struct {
	ID         string           `json:"id"`
	Snapshot   *SessionSnapshot `json:"snapshot"`
	DebounceMS float64          `json:"debounce_ms,omitempty"`
	Backlog    int              `json:"backlog,omitempty"`
	SkipRatio  bool             `json:"skip_ratio,omitempty"`
}

// Segments converts a schedule's segments to the wire form.
func Segments(s *schedule.Schedule) []SegmentJSON {
	out := make([]SegmentJSON, len(s.Segments))
	for i, seg := range s.Segments {
		out[i] = SegmentJSON(seg)
	}
	return out
}
