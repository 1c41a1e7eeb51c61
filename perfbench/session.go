package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/dispatch"
	"repro/internal/ideal"
	"repro/internal/server/wire"
	"repro/internal/task"
)

const (
	sessionCores   = 4
	sessionBatches = 200
	warmBatches    = 100
	// sessionRate is the mean batch arrival rate per virtual time unit,
	// half GenerateTrace's default. About 20 tasks stay live, so a
	// session takes about 0.6 s and a run holds dozens of them. The cost
	// of a session varies by a quarter or more between traces; averaging
	// over many sessions is what keeps runs with different seeds close.
	sessionRate = 0.25
	// sessionTraces is how many distinct traces a run cycles through.
	sessionTraces = 64
	// sessionTimeout guards one whole session against a missing event;
	// it is a deadline on the session's context, never a wait.
	sessionTimeout = 60 * time.Second
)

// createBody opens a session that re-plans every batch as it arrives
// (debounce 0, so no wall-clock timer sits in the timed path) and skips
// the clairvoyant-optimum solve at DELETE, which would otherwise cost
// seconds per session and turn the workload into a benchmark of that
// solver.
var createBody = mustJSON(wire.SessionCreateRequest{
	Cores: sessionCores, Model: modelJSON, DebounceMS: 0, SkipRatio: true,
})

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// sessionInput is one arrival trace with its encoded POST bodies.
type sessionInput struct {
	trace  task.Trace
	bodies [][]byte
}

// sessionWorkInputs draws the warm-up trace and the seed's traces.
func sessionWorkInputs(seed int64) (warm sessionInput, inputs []sessionInput, err error) {
	w, err := sessionInputs(rand.New(rand.NewSource(warmUpSeed)), 1, warmBatches)
	if err != nil {
		return warm, nil, err
	}
	inputs, err = sessionInputs(rand.New(rand.NewSource(seed)), sessionTraces, sessionBatches)
	return w[0], inputs, err
}

// sessionInputs draws n Poisson traces of the given batch count, 1–3
// tasks per batch, at sessionRate.
func sessionInputs(rng *rand.Rand, n, batches int) ([]sessionInput, error) {
	out := make([]sessionInput, n)
	for i := range out {
		tr, err := task.GenerateTrace(rng, task.ArrivalParams{
			Process: task.ArrivalPoisson, Batches: batches, Rate: sessionRate, BatchLo: 1, BatchHi: 3,
		})
		if err != nil {
			return nil, err
		}
		out[i].trace = tr
		for _, a := range tr {
			out[i].bodies = append(out[i].bodies, mustJSON(wire.ArrivalRequest{At: a.At, Tasks: a.Tasks}))
		}
	}
	return out, nil
}

// liveSession is one streaming session driven over HTTP: arrivals on one
// connection while the event stream is read on the other.
type liveSession struct {
	client  *http.Client
	url     string // .../v1/sessions/{id}
	ctx     context.Context
	cancel  context.CancelFunc
	replans chan replanEvent
	done    chan struct{} // closed when the stream reader returned
	tally   streamTally   // written by the reader; read after done
	last    int           // replan counter of the last matched event
}

// replanEvent is a replan event with the time the client read it.
type replanEvent struct {
	replans int
	at      time.Time
}

// streamTally is what the stream reader saw besides replan events.
type streamTally struct {
	finals, errors, sheds, dropped int
	clean                          bool
}

// openSession creates a session and subscribes to its events; schedd
// subscribes before it answers 200, so no event can be missed.
func openSession(client *http.Client, base string, batches int) (*liveSession, error) {
	_, reply, err := do(client, http.MethodPost, base+"/v1/sessions", createBody)
	if err != nil {
		return nil, fmt.Errorf("create session: %w", err)
	}
	var created wire.SessionCreateResponse
	if err := json.Unmarshal(reply, &created); err != nil {
		return nil, fmt.Errorf("create session: %w", err)
	}
	ls := &liveSession{
		client: client,
		url:    base + "/v1/sessions/" + created.ID,
		// Sized to the batch count: a batch yields at most one replan
		// event, so the reader never has to drop one.
		replans: make(chan replanEvent, batches),
		done:    make(chan struct{}),
	}
	ls.ctx, ls.cancel = context.WithTimeout(context.Background(), sessionTimeout)
	req, err := http.NewRequestWithContext(ls.ctx, http.MethodGet, ls.url+"/events", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				err = fmt.Errorf("HTTP %d", resp.StatusCode)
			} else {
				go ls.read(resp.Body)
				return ls, nil
			}
		}
	}
	ls.cancel()
	// Best effort: the session is abandoned either way.
	_, _, _ = do(client, http.MethodDelete, ls.url, nil)
	return nil, fmt.Errorf("subscribe to events: %w", err)
}

// read consumes the SSE stream until it ends, forwarding replan events.
func (ls *liveSession) read(body io.ReadCloser) {
	defer close(ls.done)
	defer close(ls.replans)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[len("data: "):]...)
		case bytes.HasPrefix(line, []byte(": stream closed")):
			ls.tally.clean = true
		case len(line) == 0 && len(data) > 0:
			now := time.Now()
			var ev wire.SessionEvent
			if json.Unmarshal(data, &ev) != nil {
				ls.tally.errors++
			}
			switch ev.Type {
			case dispatch.EventReplan:
				select {
				case ls.replans <- replanEvent{ev.Replans, now}:
				default:
					ls.tally.dropped++
				}
			case dispatch.EventFinal:
				ls.tally.finals++
			case dispatch.EventError:
				ls.tally.errors++
			case dispatch.EventShed:
				ls.tally.sheds++
			}
			data = data[:0]
		}
	}
}

// arrive posts one batch and waits for its replan event. The latency runs
// from the POST to the moment the client read the event.
func (ls *liveSession) arrive(body []byte) (time.Duration, error) {
	start := time.Now()
	_, reply, err := do(ls.client, http.MethodPost, ls.url+"/tasks", body)
	if err != nil {
		return 0, err
	}
	var ar wire.ArrivalResponse
	if err := json.Unmarshal(reply, &ar); err != nil {
		return 0, fmt.Errorf("decode arrival reply: %w", err)
	}
	if ar.Shed > 0 {
		return 0, fmt.Errorf("%d tasks shed", ar.Shed)
	}
	for {
		select {
		case ev, ok := <-ls.replans:
			if !ok {
				return 0, errors.New("event stream ended without the replan event")
			}
			if ev.replans > ls.last {
				ls.last = ev.replans
				return ev.at.Sub(start), nil
			}
		case <-ls.ctx.Done():
			return 0, fmt.Errorf("no replan event: %w", ls.ctx.Err())
		}
	}
}

// finish DELETEs the session and checks its stream's end: a clean
// terminator after exactly one final event, and no error or shed event.
func (ls *liveSession) finish() (*wire.SessionFinalResponse, error) {
	defer ls.cancel()
	_, reply, err := do(ls.client, http.MethodDelete, ls.url, nil)
	if err != nil {
		ls.cancel()
		<-ls.done
		return nil, err
	}
	var final wire.SessionFinalResponse
	if err := json.Unmarshal(reply, &final); err != nil {
		ls.cancel()
		<-ls.done
		return nil, fmt.Errorf("decode final report: %w", err)
	}
	<-ls.done // the DELETE closed the stream, or the session deadline did
	t := ls.tally
	if !t.clean || t.finals != 1 || t.errors != 0 || t.sheds != 0 || t.dropped != 0 {
		return &final, fmt.Errorf("event stream contract: clean=%v finals=%d errors=%d sheds=%d dropped=%d",
			t.clean, t.finals, t.errors, t.sheds, t.dropped)
	}
	return &final, nil
}

// verifyFinal is the session oracle, run after the timed window: the
// realized schedule re-validates with check.Validate, nothing was missed
// or shed, and the server reported no violation. It returns the realized
// energy over the S^O lower bound of the effective instance.
func verifyFinal(f *wire.SessionFinalResponse) (float64, error) {
	if len(f.Violations) > 0 || len(f.Missed) > 0 || f.Shed > 0 {
		return 0, fmt.Errorf("session %s: violations=%d missed=%d shed=%d", f.ID, len(f.Violations), len(f.Missed), f.Shed)
	}
	if v := check.Validate(fromWire(f.Segments, f.Tasks, f.Cores), f.Tasks, f.Cores, model); len(v) > 0 {
		return 0, fmt.Errorf("session %s: realized schedule invalid: %v (+%d more)", f.ID, v[0], len(v)-1)
	}
	plan, err := ideal.Build(f.Tasks, model)
	if err != nil {
		return 0, fmt.Errorf("session %s: ideal plan: %w", f.ID, err)
	}
	return f.RealizedEnergy / plan.TotalEnergy, nil
}

// runTrace drives one session through all of in's batches; onOp sees
// every arrival's outcome (k = -1 when the session could not be opened).
// It returns the final report, if the session got that far.
func runTrace(client *http.Client, base string, in sessionInput, res *result,
	onOp func(k int, lat time.Duration, err error)) *wire.SessionFinalResponse {
	ls, err := openSession(client, base, len(in.bodies))
	if err != nil {
		res.fail("%v", err)
		onOp(-1, 0, err)
		return nil
	}
	for k, body := range in.bodies {
		lat, err := ls.arrive(body)
		res.Attempted++
		if err != nil {
			res.fail("arrival %d: %v", k, err)
		}
		onOp(k, lat, err)
	}
	final, err := ls.finish()
	if err != nil {
		res.problem("finish: %v", err)
	}
	return final
}

// session-journaled: one streaming session at a time on a journaled
// schedd (fresh data dir, default fsync policy). Each session has m=4,
// debounce 0 and skip_ratio, and receives 200 Poisson batches of 1–3
// tasks, posted one after another while one SSE stream is read; DELETE
// closes it. An operation is one batch, from its POST to its replan
// event; session create and DELETE count toward throughput but are not
// operations.
//
// Why: it is the only workload that reaches the dispatch runtime (commit,
// residual rescan), online.ReplanDER, the residual guardrail, journal
// appends and SSE. One stream at a time leaves a core free, in contrast
// to solve-cold.
//
// Steadiness: debounce 0 keeps wall-clock timers out of the timed path;
// set-up is 3 rounds of starting the journaled schedd and running one
// fixed 100-batch warm-up session; latency percentiles pool every
// arrival of every session, never per session; 2 connections, one for
// arrivals and one for the event stream.
func runSession(cfg runConfig) (*result, error) {
	warm, inputs, err := sessionWorkInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	setupS, st, err := setUp(setupRounds, func() (*stack, error) { return startJournaled(cfg.workdir, warm) })
	if err != nil {
		return nil, err
	}
	defer st.close()

	res := newResult(endToEnd)
	client := newClient(conns)
	defer closeClient(client)
	b0, _, err := st.scrape(client)
	if err != nil {
		return nil, err
	}
	var (
		lats   []float64
		finals []*wire.SessionFinalResponse
	)
	runtime.GC()
	u0 := readUsage()
	start := time.Now()
	deadline := start.Add(cfg.window)
	// Whole sessions only: the window closes after the DELETE of the
	// session running when the time is up, so every run pays the same
	// per-session create and finish cost per arrival.
	for i := 0; time.Now().Before(deadline); i++ {
		final := runTrace(client, st.url(), inputs[i%len(inputs)], res, func(_ int, lat time.Duration, err error) {
			if err == nil {
				lats = append(lats, ms(lat))
			}
		})
		if final != nil {
			finals = append(finals, final)
		}
	}
	u1 := readUsage()
	elapsed := time.Since(start)
	b1, _, err := st.scrape(client)
	if err != nil {
		return nil, err
	}

	ratios := make([]float64, len(finals))
	errs := make([]error, len(finals))
	// Re-validation uses every core; each worker records its own outcome.
	_ = parallel(len(finals), conns, func(i int) error {
		ratios[i], errs[i] = verifyFinal(finals[i])
		return nil
	})
	var valid []float64
	for i, err := range errs {
		if err != nil {
			res.problem("%v", err)
			continue
		}
		valid = append(valid, ratios[i])
	}
	sessionPremise(res, sumDelta(b0, b1), len(lats))
	fillLatency(res, lats, elapsed)
	cpu, alloc := perOp(u0, u1, len(lats))
	res.set("setup_s", setupS)
	res.set("cpu_ms_per_op", cpu)
	res.set("alloc_kb_per_op", alloc)
	res.set("energy_ratio", mean(valid))
	return res, nil
}

// startJournaled starts one journaled schedd over a fresh data dir and
// warms it with one short session.
func startJournaled(workdir string, warm sessionInput) (*stack, error) {
	dir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return nil, err
	}
	st, err := startStack(1, false, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	client := newClient(conns)
	defer closeClient(client)
	wr := newResult(nil)
	runTrace(client, st.url(), warm, wr, func(int, time.Duration, error) {})
	if !wr.Correct {
		st.close()
		return nil, fmt.Errorf("warm-up: %s", strings.Join(wr.problems, "; "))
	}
	return st, nil
}

// sessionPremise: every arrival was re-planned once, nothing was shed,
// no re-plan failed, and the journal recorded at least one record per
// arrival.
func sessionPremise(res *result, sd counters, ops int) {
	replans, sheds := sd["schedd_session_replans_total"], sd["schedd_session_shed_tasks_total"]
	failures, records := sd["schedd_session_replan_failures_total"], sd["schedd_journal_records_total"]
	if sheds != 0 || failures != 0 || (res.Failed == 0 && (replans != float64(ops) || records < float64(ops))) {
		res.problem("session-journaled premise broken: %d arrivals, replans %g, shed tasks %g, replan failures %g, journal records %g",
			ops, replans, sheds, failures, records)
	}
}
