package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/easched"
	"repro/internal/check"
	"repro/internal/ideal"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// Instance shape and load shared by the one-shot workloads.
const (
	solveAlgorithm = "S^F2"
	solveCores     = 16
	solveTasks     = 100
	// conns is the client's connection count: the cores of the machine
	// the benchmark was tuned on (nproc = 2). More connections than cores
	// would only measure queueing in the client.
	conns = 2
	// coldPool exceeds schedd's default cache capacity (1024), so a
	// cyclic walk over the pool misses on every request.
	coldPool   = 1100
	coldWarmUp = 6
	// hotInstances are cached in both backends during set-up.
	hotInstances = 16
	// sampleEvery picks the fixed sample of replies re-validated with
	// check.Validate after the timed window.
	sampleEvery = 32
)

// The paper's model: p(f) = f^3 + 0.05.
var (
	model     = power.Unit(3, 0.05)
	modelJSON = wire.ModelJSON{Alpha: 3, P0: 0.05}
)

// warmUpSeed seeds every warm-up input, so set-up does the same work
// whatever --seed is and setup_s compares across runs.
const warmUpSeed = 1

// replyHead is the part of a schedule reply every operation checks;
// decoding only these fields keeps the client's share of the CPU small.
type replyHead struct {
	Algorithm string  `json:"algorithm"`
	Energy    float64 `json:"energy"`
	Verified  bool    `json:"verified"`
	Cached    bool    `json:"cached"`
	Degraded  bool    `json:"degraded"`
}

// solveOnce posts one schedule request and checks the reply's head: the
// requested algorithm, verified, not degraded, and served from the cache
// exactly when wantCached.
func solveOnce(client *http.Client, url string, body []byte, wantCached bool) (time.Duration, []byte, float64, error) {
	lat, reply, err := do(client, http.MethodPost, url+"/v1/schedule", body)
	if err != nil {
		return lat, nil, 0, err
	}
	var h replyHead
	if err := json.Unmarshal(reply, &h); err != nil {
		return lat, nil, 0, fmt.Errorf("decode reply: %w", err)
	}
	switch {
	case h.Algorithm != solveAlgorithm || !h.Verified || h.Degraded:
		return lat, nil, 0, fmt.Errorf("reply algorithm=%q verified=%v degraded=%v", h.Algorithm, h.Verified, h.Degraded)
	case h.Cached != wantCached:
		return lat, nil, 0, fmt.Errorf("reply cached=%v, workload expects %v", h.Cached, wantCached)
	}
	return lat, reply, h.Energy, nil
}

// oneShotOp is the outcome of one schedule request.
type oneShotOp struct {
	idx     int // instance index
	latency time.Duration
	energy  float64
	reply   []byte // kept for the validated sample only
	err     error
}

// closedLoop runs op on conns clients, each sending its next operation
// only after its previous one finished, until window has passed. It
// returns every outcome and the time to the last completion.
func closedLoop(conns int, window time.Duration, op func(seq int) oneShotOp) ([]oneShotOp, time.Duration) {
	var next atomic.Int64
	per := make([][]oneShotOp, conns)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[w] = append(per[w], op(int(next.Add(1)-1)))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []oneShotOp
	for _, ops := range per {
		all = append(all, ops...)
	}
	return all, elapsed
}

// oneShot is a one-shot workload over a pool of instances.
type oneShot struct {
	pool       instancePool
	wantCached bool
	// premise fails the run when schedd's and the router's counters
	// contradict what the workload is built to exercise.
	premise func(res *result, backends, router counters, ops int)
}

// measure runs the timed closed loop against st and fills the end-to-end
// metrics; the oracle runs after the window.
func (o *oneShot) measure(st *stack, setupS float64, window time.Duration) (*result, error) {
	res := newResult(endToEnd)
	client := newClient(conns)
	defer closeClient(client)
	b0, r0, err := st.scrape(client)
	if err != nil {
		return nil, err
	}
	url := st.url()
	runtime.GC()
	u0 := readUsage()
	ops, elapsed := closedLoop(conns, window, func(seq int) oneShotOp {
		idx := seq % len(o.pool.sets)
		lat, reply, energy, err := solveOnce(client, url, o.pool.bodies[idx], o.wantCached)
		op := oneShotOp{idx: idx, latency: lat, energy: energy, err: err}
		if seq%sampleEvery == 0 {
			op.reply = reply
		}
		return op
	})
	u1 := readUsage()
	b1, r1, err := st.scrape(client)
	if err != nil {
		return nil, err
	}

	res.Attempted = len(ops)
	ratio := verifyOneShot(res, o.pool.sets, ops)
	var lats []float64
	for _, op := range ops {
		if op.err == nil {
			lats = append(lats, ms(op.latency))
		}
	}
	o.premise(res, sumDelta(b0, b1), sumDelta([]counters{r0}, []counters{r1}), len(lats))
	fillLatency(res, lats, elapsed)
	cpu, alloc := perOp(u0, u1, len(lats))
	res.set("setup_s", setupS)
	res.set("cpu_ms_per_op", cpu)
	res.set("alloc_kb_per_op", alloc)
	res.set("energy_ratio", ratio)
	return res, nil
}

// fillLatency sets throughput and the latency percentiles from the
// successful operations' latencies (ms), and records whether the p90
// rests on at least minTail samples beyond it.
func fillLatency(res *result, lats []float64, elapsed time.Duration) {
	res.samples = len(lats)
	res.set("throughput_ops_s", float64(len(lats))/elapsed.Seconds())
	p50, _ := percentile(lats, 0.5)
	p90, ok := percentile(lats, 0.9)
	res.set("latency_p50_ms", p50)
	res.set("latency_p90_ms", p90)
	res.tooFew = !ok
}

// sumDelta adds up the counter deltas of several endpoints.
func sumDelta(before, after []counters) counters {
	out := counters{}
	for i := range after {
		for name, v := range after[i] {
			out[name] += v - before[i][name]
		}
	}
	return out
}

// verifyOneShot is the correctness oracle, run after the timed window so
// it does not compete for the cores. Every served energy must equal a
// reference easched.Solve of the same instance, and the fixed sample of
// replies is re-validated with check.Validate. Failed operations are
// counted into res. It returns the mean served energy over the S^O lower
// bound, ideal.Build(...).TotalEnergy.
func verifyOneShot(res *result, pool []task.Set, ops []oneShotOp) float64 {
	// The oracle may use every core: one reference per distinct instance
	// served, and the sampled re-validations, spread over conns workers.
	// Each worker records its own outcome, so parallel never errs here.
	type reference struct {
		energy, bound float64
		err           error
	}
	refs := make([]*reference, len(pool))
	var served []int
	for _, op := range ops {
		if op.err == nil && refs[op.idx] == nil {
			refs[op.idx] = &reference{}
			served = append(served, op.idx)
		}
	}
	_ = parallel(len(served), conns, func(i int) error {
		r, ts := refs[served[i]], pool[served[i]]
		rep, err := easched.Solve(context.Background(), easched.Spec{Tasks: ts, Cores: solveCores, Model: model})
		if err != nil {
			r.err = fmt.Errorf("reference solve: %w", err)
			return nil
		}
		plan, err := ideal.Build(ts, model)
		if err != nil {
			r.err = fmt.Errorf("ideal plan: %w", err)
			return nil
		}
		r.energy, r.bound = rep.Energy, plan.TotalEnergy
		return nil
	})
	replyErrs := make([]error, len(ops))
	_ = parallel(len(ops), conns, func(i int) error {
		if op := ops[i]; op.err == nil && op.reply != nil {
			replyErrs[i] = validateReply(op.reply, pool[op.idx])
		}
		return nil
	})

	var ratios []float64
	for i, op := range ops {
		ref := refs[op.idx]
		switch {
		case op.err != nil:
			res.fail("instance %d: %v", op.idx, op.err)
		case ref.err != nil:
			res.fail("instance %d: %v", op.idx, ref.err)
		case math.Abs(op.energy-ref.energy) > 1e-9*math.Max(1, math.Abs(ref.energy)):
			res.fail("instance %d: served energy %.12g, reference %.12g", op.idx, op.energy, ref.energy)
		case replyErrs[i] != nil:
			res.fail("instance %d: %v", op.idx, replyErrs[i])
		default:
			ratios = append(ratios, op.energy/ref.bound)
		}
	}
	return mean(ratios)
}

// validateReply re-validates a full schedule reply against its instance.
func validateReply(reply []byte, ts task.Set) error {
	var resp wire.ScheduleResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if v := check.Validate(fromWire(resp.Segments, ts, resp.Cores), ts, resp.Cores, model); len(v) > 0 {
		return fmt.Errorf("served schedule invalid: %v (+%d more)", v[0], len(v)-1)
	}
	return nil
}

// fromWire rebuilds a schedule from wire segments.
func fromWire(segs []wire.SegmentJSON, ts task.Set, cores int) *schedule.Schedule {
	s := schedule.New(ts, cores)
	for _, seg := range segs {
		s.Add(schedule.Segment{Task: seg.Task, Core: seg.Core, Start: seg.Start, End: seg.End, Frequency: seg.Frequency})
	}
	return s
}

// solve-cold: POST /v1/schedule straight to schedd, S^F2 at n=100 and
// m=16, from 2 closed-loop connections walking a pool larger than the
// cache, so every request misses.
//
// Why: it is the full solve path — decode, decomposition, ideal plan,
// allocation, packing and final frequencies, schedule.Validate, the
// check.Validate guardrail, sim.Run, JSON encode — plus cache writes and
// LRU evictions. The 2 connections fill schedd's GOMAXPROCS-sized worker
// pool, so it measures capacity and leaves no core for parallelism
// inside a request. It isolates the solver and validator layers; the
// router and the session runtime are not started.
//
// Steadiness: no timer in the timed path; set-up is 3 rounds of starting
// schedd and solving 6 fixed warm-up instances; latency percentiles pool
// every request of the run; 2 connections, one per core.
func runCold(cfg runConfig) (*result, error) {
	warm, pool, err := coldInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	setupS, st, err := setUp(setupRounds, func() (*stack, error) { return startCold(warm) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	o := &oneShot{pool: pool, premise: coldPremise}
	return o.measure(st, setupS, cfg.window)
}

// instancePool is a set of instances with their encoded POST
// /v1/schedule bodies.
type instancePool struct {
	sets   []task.Set
	bodies [][]byte
}

// newPool draws n instances of the given size from the paper's
// generator.
func newPool(rng *rand.Rand, n, tasks int) (instancePool, error) {
	p := instancePool{sets: make([]task.Set, n), bodies: make([][]byte, n)}
	for i := range p.sets {
		ts, err := task.Generate(rng, task.PaperDefaults(tasks))
		if err != nil {
			return p, err
		}
		p.sets[i] = ts
		p.bodies[i] = mustJSON(wire.ScheduleRequest{
			Algorithm: solveAlgorithm, Cores: solveCores, Model: modelJSON, Tasks: ts,
		})
	}
	return p, nil
}

// coldInputs draws the warm-up instances and the pool. Warm-up
// instances have one task fewer, so they never share a cache key with a
// pool instance.
func coldInputs(seed int64) (warm, pool instancePool, err error) {
	if warm, err = newPool(rand.New(rand.NewSource(warmUpSeed)), coldWarmUp, solveTasks-1); err != nil {
		return
	}
	pool, err = newPool(rand.New(rand.NewSource(seed)), coldPool, solveTasks)
	return
}

// startCold starts one schedd and warms it with a few solves of
// instances outside the pool.
func startCold(warm instancePool) (*stack, error) {
	st, err := startStack(1, false, "")
	if err != nil {
		return nil, err
	}
	client := newClient(conns)
	defer closeClient(client)
	err = parallel(len(warm.bodies), conns, func(i int) error {
		_, _, _, err := solveOnce(client, st.url(), warm.bodies[i], false)
		return err
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// coldPremise: every request was solved, none served from the cache.
func coldPremise(res *result, sd, _ counters, ops int) {
	hits, misses, solves := sd["schedd_cache_hits_total"], sd["schedd_cache_misses_total"], sd["schedd_solves_total"]
	if hits != 0 || (res.Failed == 0 && (misses != float64(ops) || solves != float64(ops))) {
		res.problem("solve-cold premise broken: %d ops, cache hits %g, misses %g, solves %g", ops, hits, misses, solves)
	}
}

// solve-hot-routed: the same request shape sent through the router to 2
// backends, both of which cache all 16 instances during set-up; 2
// closed-loop connections send the load.
//
// Why: it skips the solver and the validator entirely and stresses what
// the cold workload barely touches: request decode, the solve-key
// sha256, checksum verification on the cache hit, re-encoding a reply of
// about 6k segments, and the router hop, which buffers each reply of
// about 0.5 MB. It isolates the wire, cache and router layers.
//
// Steadiness: no timer in the timed path; set-up is 3 rounds of starting
// both backends and the router and filling both caches by solving; the
// router's health poller runs but never gates a request; latency
// percentiles pool every request; 2 connections, one per core.
func runHot(cfg runConfig) (*result, error) {
	pool, err := newPool(rand.New(rand.NewSource(cfg.seed)), hotInstances, solveTasks)
	if err != nil {
		return nil, err
	}
	setupS, st, err := setUp(setupRounds, func() (*stack, error) { return startHot(pool) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	o := &oneShot{pool: pool, wantCached: true, premise: hotPremise}
	return o.measure(st, setupS, cfg.window)
}

// startHot starts 2 schedd backends behind the router, solves every
// instance on both backends, then sends each once through the router.
func startHot(pool instancePool) (*stack, error) {
	st, err := startStack(2, true, "")
	if err != nil {
		return nil, err
	}
	client := newClient(conns)
	defer closeClient(client)
	nb := len(st.nodes)
	err = parallel(nb*len(pool.bodies), conns, func(i int) error {
		_, _, _, err := solveOnce(client, st.nodes[i%nb].url, pool.bodies[i/nb], false)
		return err
	})
	if err == nil {
		err = parallel(len(pool.bodies), conns, func(i int) error {
			_, _, _, err := solveOnce(client, st.url(), pool.bodies[i], true)
			return err
		})
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// hotPremise: every request was a cache hit on some backend, nothing was
// solved, and the router never had to retry.
func hotPremise(res *result, sd, rd counters, ops int) {
	hits, misses, solves := sd["schedd_cache_hits_total"], sd["schedd_cache_misses_total"], sd["schedd_solves_total"]
	retries := rd["schedrouter_proxy_retries_total"]
	if misses != 0 || solves != 0 || retries != 0 || (res.Failed == 0 && hits != float64(ops)) {
		res.problem("solve-hot-routed premise broken: %d ops, cache hits %g, misses %g, solves %g, router retries %g",
			ops, hits, misses, solves, retries)
	}
}
