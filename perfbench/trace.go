package main

// The traced run. It sends each operation once through the stack, timed,
// and then once through the layer calls the stack makes for it, on the
// same input, each timed as a span from this package around the layer's
// public function. Per-layer metrics are medians over operations; a
// layer's self time is its span minus the spans of the layers it calls.
// Spans stay in memory and are written to the work dir when the run ends.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/ideal"
	"repro/internal/interval"
	"repro/internal/journal"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/sim"
	"repro/internal/task"
)

// solveTol is the subinterval tolerance of the registered runners and of
// easched.Solve.
const solveTol = 1e-9

// replaySolve runs one S^F2 solve through the layers the registered
// runner reaches, each a span of op under parent: decomposition, ideal
// plan, allocation, the core build (Solver.Schedule with SkipValidation;
// it repeats the three phases above internally, so its self time is its
// duration minus theirs), and schedule.Validate of both schedules, which
// the runner's core.Schedule does.
func replaySolve(tr *tracer, op int64, parent string, ts task.Set, m int, pm power.Model) (*core.Result, error) {
	var (
		d    *interval.Decomposition
		plan *ideal.Plan
		err  error
	)
	dDec := tr.timed(op, "interval.decompose", parent, func() { d, err = interval.Decompose(ts, solveTol) })
	if err != nil {
		return nil, err
	}
	dIdeal := tr.timed(op, "ideal.build", parent, func() { plan, err = ideal.Build(ts, pm) })
	if err != nil {
		return nil, err
	}
	dAlloc := tr.timed(op, "alloc.build", parent, func() { _, err = alloc.Build(d, m, alloc.DER, plan) })
	if err != nil {
		return nil, err
	}
	var res *core.Result
	start := time.Now()
	res, err = core.NewSolver().Schedule(ts, m, pm, alloc.DER, core.Options{Tolerance: solveTol, SkipValidation: true})
	tr.record(op, "core.build", parent, start, time.Since(start)-dDec-dIdeal-dAlloc)
	if err != nil {
		return nil, err
	}
	var errs []schedule.ValidationError
	tr.timed(op, "schedule.validate", parent, func() {
		errs = append(res.Intermediate.Validate(1e-6, true), res.Final.Validate(1e-6, true)...)
	})
	if len(errs) > 0 {
		return nil, fmt.Errorf("replayed schedule infeasible: %v", errs[0])
	}
	tr.count(op, "core.segments", float64(len(res.Final.Segments)))
	return res, nil
}

// slices counts the elementary time slices check.Validate sweeps: the
// gaps between distinct segment boundaries. The sweep visits every
// segment per slice, so slices × segments is its work.
func slices(s *schedule.Schedule) int {
	pts := make([]float64, 0, 2*len(s.Segments))
	for _, seg := range s.Segments {
		pts = append(pts, seg.Start, seg.End)
	}
	sort.Float64s(pts)
	n := 0
	for i := 1; i < len(pts); i++ {
		if pts[i] > pts[i-1] {
			n++
		}
	}
	return n
}

// decodeRequest decodes a schedule request the way schedd does: unknown
// fields and trailing data are errors.
func decodeRequest(body []byte, req *wire.ScheduleRequest) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("trailing data after request")
	}
	return nil
}

// oneShotLayers are the layer spans of a cold solve, in pipeline order;
// together with server.self_ms they make up the stack latency.
var oneShotLayers = []string{
	"wire.decode_ms", "interval.decompose_ms", "ideal.build_ms", "alloc.build_ms", "core.build_ms",
	"schedule.validate_ms", "check.validate_ms", "sim.run_ms", "wire.encode_ms",
}

// replayCold replays one cold request through every layer schedd calls
// for it: decode, the solve pipeline, the check.Validate guardrail,
// sim.Run and the reply's encoding.
func replayCold(tr *tracer, op int64, body []byte) error {
	const parent = "server"
	var req wire.ScheduleRequest
	var err error
	tr.timed(op, "wire.decode", parent, func() { err = decodeRequest(body, &req) })
	if err != nil {
		return err
	}
	pm, err := req.Model.Model()
	if err != nil {
		return err
	}
	res, err := replaySolve(tr, op, parent, req.Tasks, req.Cores, pm)
	if err != nil {
		return err
	}
	var v []check.Violation
	tr.timed(op, "check.validate", parent, func() { v = check.Validate(res.Final, req.Tasks, req.Cores, pm) })
	if len(v) > 0 {
		return fmt.Errorf("replayed schedule rejected: %v", v[0])
	}
	tr.count(op, "check.slices", float64(slices(res.Final)))
	var rep *sim.Report
	tr.timed(op, "sim.run", parent, func() { rep, err = sim.Run(res.Final, pm) })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	tr.timed(op, "wire.encode", parent, func() {
		err = json.NewEncoder(&buf).Encode(wire.ScheduleResponse{
			Version: wire.Version, Algorithm: req.Algorithm, Cores: req.Cores,
			Energy: res.FinalEnergy, BusyTime: res.Final.BusyTime(), Makespan: res.Final.Makespan(),
			Verified: true, Segments: wire.Segments(res.Final), Sim: wire.SimReport(rep),
		})
	})
	tr.count(op, "wire.response_kb", float64(buf.Len())/1024)
	return err
}

// layerResult builds the per-layer result from per-operation values:
// medians over ops for every metric not set explicitly afterwards.
func layerResult(per map[int64]map[string]float64, ops []int64) *result {
	res := newResult(perLayer)
	names := make([]string, len(perLayer))
	for i, d := range perLayer {
		names[i] = d.name
	}
	for name, v := range medianOver(per, ops, names...) {
		res.set(name, v)
	}
	return res
}

// selfTime sets, for every op, server.self_ms = stack − Σ layers and the
// trace coverage (Σ layers / stack).
func selfTime(per map[int64]map[string]float64, ops []int64, layers []string) {
	for _, op := range ops {
		m := per[op]
		var sum float64
		for _, l := range layers {
			sum += m[l]
		}
		m["server.self_ms"] = m["trace.stack_ms"] - sum
		if m["trace.stack_ms"] > 0 {
			m["trace.coverage"] = sum / m["trace.stack_ms"]
		}
	}
}

// hitRatio is hits/(hits+misses) of schedd's solve cache, 0 without
// lookups.
func hitRatio(sd counters) float64 {
	h, m := sd["schedd_cache_hits_total"], sd["schedd_cache_misses_total"]
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// traceCold is solve-cold's traced run: one connection, each request
// once through schedd and once through the layers.
func traceCold(cfg runConfig, tr *tracer) (*result, error) {
	warm, pool, err := coldInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	st, err := startCold(warm)
	if err != nil {
		return nil, err
	}
	defer st.close()
	client := newClient(1)
	defer closeClient(client)
	b0, _, err := st.scrape(client)
	if err != nil {
		return nil, err
	}
	probe := newResult(nil)
	var ops []int64
	deadline := time.Now().Add(cfg.window)
	for seq := 0; seq == 0 || time.Now().Before(deadline); seq++ {
		op, idx := int64(seq), seq%len(pool.bodies)
		lat, _, _, err := solveOnce(client, st.url(), pool.bodies[idx], false)
		probe.Attempted++
		if err != nil {
			probe.fail("instance %d: %v", idx, err)
			continue
		}
		tr.record(op, "trace.stack", "", time.Now().Add(-lat), lat)
		if err := replayCold(tr, op, pool.bodies[idx]); err != nil {
			probe.fail("instance %d: replay: %v", idx, err)
			continue
		}
		ops = append(ops, op)
	}
	b1, _, err := st.scrape(client)
	if err != nil {
		return nil, err
	}
	per := tr.perOp()
	selfTime(per, ops, oneShotLayers)
	res := layerResult(per, ops)
	sd := sumDelta(b0, b1)
	res.set("server.cache_hit_ratio", hitRatio(sd))
	coldPremise(probe, sd, nil, len(ops))
	return res.absorb(probe, len(ops)), nil
}

// absorb takes over the traced run's operation counts and problems.
func (r *result) absorb(probe *result, samples int) *result {
	r.Attempted, r.Failed, r.samples = probe.Attempted, probe.Failed, samples
	r.problems = probe.problems
	r.Correct = probe.Correct
	return r
}

// hotLayers are the layer spans of a routed cache hit.
var hotLayers = []string{"wire.decode_ms", "wire.encode_ms", "cluster.hop_ms"}

// traceHot is solve-hot-routed's traced run: each request once straight
// to the backend the router picks when idle (the first), once through
// the router — the difference is the hop — and once through the wire
// layers a cache hit reaches.
func traceHot(cfg runConfig, tr *tracer) (*result, error) {
	pool, err := newPool(rand.New(rand.NewSource(cfg.seed)), hotInstances, solveTasks)
	if err != nil {
		return nil, err
	}
	st, err := startHot(pool)
	if err != nil {
		return nil, err
	}
	defer st.close()
	client := newClient(1)
	defer closeClient(client)
	b0, r0, err := st.scrape(client)
	if err != nil {
		return nil, err
	}
	probe := newResult(nil)
	var ops []int64
	deadline := time.Now().Add(cfg.window)
	for seq := 0; seq == 0 || time.Now().Before(deadline); seq++ {
		op, idx := int64(seq), seq%len(pool.bodies)
		direct, _, _, err := solveOnce(client, st.nodes[0].url, pool.bodies[idx], true)
		probe.Attempted++
		if err != nil {
			probe.fail("instance %d direct: %v", idx, err)
			continue
		}
		routed, reply, _, err := solveOnce(client, st.url(), pool.bodies[idx], true)
		if err != nil {
			probe.fail("instance %d routed: %v", idx, err)
			continue
		}
		now := time.Now()
		tr.record(op, "trace.stack", "", now.Add(-routed), routed)
		tr.record(op, "cluster.hop", "trace.stack", now.Add(-routed), routed-direct)
		var req wire.ScheduleRequest
		tr.timed(op, "wire.decode", "server", func() { err = decodeRequest(pool.bodies[idx], &req) })
		var resp wire.ScheduleResponse
		if err == nil {
			err = json.Unmarshal(reply, &resp)
		}
		if err != nil {
			probe.fail("instance %d: replay: %v", idx, err)
			continue
		}
		var buf bytes.Buffer
		tr.timed(op, "wire.encode", "server", func() { err = json.NewEncoder(&buf).Encode(resp) })
		tr.count(op, "wire.response_kb", float64(len(reply))/1024)
		ops = append(ops, op)
	}
	b1, r1, err := st.scrape(client)
	if err != nil {
		return nil, err
	}
	per := tr.perOp()
	selfTime(per, ops, hotLayers)
	res := layerResult(per, ops)
	sd, rd := sumDelta(b0, b1), sumDelta([]counters{r0}, []counters{r1})
	res.set("server.cache_hit_ratio", hitRatio(sd))
	res.set("cluster.retries", rd["schedrouter_proxy_retries_total"])
	// Direct requests are hits too: two per operation.
	hotPremise(probe, sd, rd, 2*len(ops))
	return res.absorb(probe, len(ops)), nil
}

// journalSpy times journal.Writer.Append for the traced session and
// sizes each record's frame (an 8-byte length+CRC32C header before the
// JSON payload the writer marshals). The sizing is excluded from the
// arrival's time through overhead.
type journalSpy struct {
	w        *journal.Writer
	tr       *tracer
	op       *int64
	overhead *time.Duration
	bytes    float64
}

func (j *journalSpy) Append(rec *dispatch.Record) error {
	var err error
	j.tr.timed(*j.op, "journal.append", "dispatch.arrive", func() { err = j.w.Append(rec) })
	t0 := time.Now()
	if b, merr := json.Marshal(rec); merr == nil {
		j.bytes += float64(8 + len(b))
	}
	*j.overhead += time.Since(t0)
	return err
}

// sessionLayers are the spans directly inside dispatch.Session.Arrive;
// the solve-pipeline spans nest inside online.replan.
var sessionLayers = []string{"online.replan_ms", "check.validate_ms", "journal.append_ms"}

// replaySession runs one trace through dispatch.New with the layers
// schedd wires in, each timed: the registered ReplanDER run and the
// check.Validate guardrail (the Config.Solve wrapper), and journal
// appends (a dispatch.Journal over journal.Writer.Append). After each
// arrival the residual instances it solved are replayed through the solve
// pipeline to break online.replan down. Arrivals are ops first..; Finish
// is op first+len(in). It returns the journal bytes written.
func replaySession(tr *tracer, store *journal.Store, id string, in task.Trace, first int64) (float64, error) {
	jw, err := store.Writer(id)
	if err != nil {
		return 0, err
	}
	defer func() {
		_ = jw.Close()       // a close error only affects this scratch log
		_ = store.Remove(id) // likewise
	}()
	entry, ok := check.Lookup(dispatch.DefaultAlgorithm)
	if !ok {
		return 0, fmt.Errorf("algorithm %q not registered", dispatch.DefaultAlgorithm)
	}
	finishOp := first + int64(len(in))
	cur := finishOp // the create record belongs to the session, not an arrival
	var overhead time.Duration
	type solved struct {
		ts  task.Set
		out *schedule.Schedule
	}
	var pending []solved
	solve := func(ctx context.Context, ts task.Set, m int, pm power.Model) (*schedule.Schedule, float64, error) {
		var (
			s      *schedule.Schedule
			energy float64
			err    error
		)
		tr.timed(cur, "online.replan", "dispatch.arrive", func() { s, energy, err = entry.Run(ctx, ts, m, pm) })
		if err != nil {
			return nil, 0, err
		}
		var v []check.Violation
		tr.timed(cur, "check.validate", "dispatch.arrive", func() { v = check.Validate(s, ts, m, pm) })
		if len(v) > 0 {
			return nil, 0, fmt.Errorf("residual schedule rejected: %v", v[0])
		}
		t0 := time.Now()
		tr.count(cur, "dispatch.residual_tasks", float64(len(ts)))
		tr.count(cur, "check.slices", float64(slices(s)))
		pending = append(pending, solved{ts.Clone(), s})
		overhead += time.Since(t0)
		return s, energy, nil
	}
	spy := &journalSpy{w: jw, tr: tr, op: &cur, overhead: &overhead}
	sess, err := dispatch.New(dispatch.Config{
		Algorithm: dispatch.DefaultAlgorithm, Cores: sessionCores, Model: model,
		Solve: solve, Journal: spy, SkipRatio: true,
	})
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	ctx := context.Background()
	arrived := 0
	for k, a := range in {
		cur, overhead, pending = first+int64(k), 0, pending[:0]
		batch := a.Tasks.Clone()
		t0 := time.Now()
		_, shed, err := sess.Arrive(ctx, a.At, batch)
		tr.record(cur, "dispatch.arrive", "server", t0, time.Since(t0)-overhead)
		if err != nil || shed > 0 {
			return 0, fmt.Errorf("arrival %d: shed %d: %v", k, shed, err)
		}
		arrived += len(batch)
		tr.count(cur, "dispatch.arrived_tasks", float64(arrived))
		// ReplanDER on a residual released at the session clock plans
		// once: one core.Schedule, then its own check of the realized
		// schedule.
		for _, p := range pending {
			if _, err := replaySolve(tr, cur, "online.replan", p.ts, sessionCores, model); err != nil {
				return 0, err
			}
			tr.timed(cur, "schedule.validate", "online.replan", func() { _ = p.out.Validate(1e-6, true) })
		}
	}
	cur = finishOp
	tr.timed(finishOp, "dispatch.finish", "server", func() { _, err = sess.Finish(ctx) })
	return spy.bytes, err
}

// traceSession is session-journaled's traced run: each trace once
// through the journaled schedd over HTTP and SSE, then once through
// dispatch.New with timed layers.
func traceSession(cfg runConfig, tr *tracer) (*result, error) {
	warm, inputs, err := sessionWorkInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	st, err := startJournaled(cfg.workdir, warm)
	if err != nil {
		return nil, err
	}
	defer st.close()
	dir, err := os.MkdirTemp(cfg.workdir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()

	client := newClient(conns)
	defer closeClient(client)
	b0, _, err := st.scrape(client)
	if err != nil {
		return nil, err
	}
	probe := newResult(nil)
	var ops, finishes []int64
	var jbytes float64
	replayed := 0
	deadline := time.Now().Add(cfg.window)
	var first int64
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		in := inputs[i%len(inputs)]
		final := runTrace(client, st.url(), in, probe, func(k int, lat time.Duration, err error) {
			if err == nil && k >= 0 {
				op := first + int64(k)
				tr.record(op, "trace.stack", "", time.Now().Add(-lat), lat)
				ops = append(ops, op)
			}
		})
		if final != nil {
			if _, err := verifyFinal(final); err != nil {
				probe.problem("%v", err)
			}
		}
		b, err := replaySession(tr, store, fmt.Sprintf("replay-%d", i), in.trace, first)
		if err != nil {
			probe.problem("replay: %v", err)
		}
		jbytes += b
		replayed += len(in.trace)
		finishes = append(finishes, first+int64(len(in.trace)))
		first += int64(len(in.trace)) + 1
	}
	b1, _, err := st.scrape(client)
	if err != nil {
		return nil, err
	}
	per := tr.perOp()
	for _, op := range ops {
		m := per[op]
		m["dispatch.self_ms"] = m["dispatch.arrive_ms"]
		for _, l := range sessionLayers {
			m["dispatch.self_ms"] -= m[l]
		}
	}
	selfTime(per, ops, []string{"dispatch.arrive_ms"})
	res := layerResult(per, ops)
	res.set("dispatch.finish_ms", medianOver(per, finishes, "dispatch.finish_ms")["dispatch.finish_ms"])
	sd := sumDelta(b0, b1)
	if len(ops) > 0 {
		res.set("journal.records_per_op", sd["schedd_journal_records_total"]/float64(len(ops)))
	}
	if replayed > 0 {
		res.set("journal.kb_per_op", jbytes/1024/float64(replayed))
	}
	sessionPremise(probe, sd, len(ops))
	return res.absorb(probe, len(ops)), nil
}
