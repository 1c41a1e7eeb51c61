package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// streamConfig carries the -stream mode's knobs from main.
type streamConfig struct {
	addr      string
	sessions  int
	algorithm string
	cores     int
	model     wire.ModelJSON
	pm        power.Model

	process    string // poisson | bursty
	batches    int
	rate       float64
	batchLo    int
	batchHi    int
	regime     string
	debounceMS float64
	traceFile  string // replay one taskgen -arrivals trace in every session

	seed      int64
	noVerify  bool
	retries   int
	tolerate  bool
	timeout   time.Duration
	reconnect bool // resubscribe broken SSE streams, dedupe by event id
}

// sessionOutcome is one session's tally.
type sessionOutcome struct {
	id          string
	tasks       int
	admitted    int
	shed        int
	replans     int
	completed   int
	missed      int
	violations  int
	ratio       float64 // 0 when the optimum was skipped or failed
	events      int
	seqGaps     int // SSE id discontinuities (must be 0, even across migrations)
	finalEvent  bool
	dupFinals   int // final events after the first (must be 0)
	streamClean bool
	err         string // written by driveSession only
	sseErr      string // written by the consumeSSE goroutine only

	// subscribed tracks whether the SSE consumer currently holds a live
	// subscription (-reconnect): driveSession waits on it before DELETE
	// so the final event lands on a stream instead of racing teardown.
	subscribed atomic.Bool
	// finished is set once DELETE returned the final report
	// (-reconnect): a 404 on resubscribe after that is our own
	// teardown, not a lost session.
	finished atomic.Bool
}

// runStream drives N concurrent streaming sessions end to end: create,
// feed a timed arrival trace, consume the SSE event stream, then DELETE
// for the final report, which is re-validated client-side with the
// universal schedule checker. Returns the process exit code.
func runStream(cfg streamConfig) int {
	traces, err := buildTraces(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "schedload: %d streaming sessions -> %s algo=%s cores=%d arrivals=%s batches=%d rate=%g\n",
		cfg.sessions, cfg.addr, cfg.algorithm, cfg.cores, cfg.process, cfg.batches, cfg.rate)

	// One pooled client for the request/response endpoints; SSE streams
	// get an un-timeouted client so long sessions aren't cut off.
	client := &http.Client{
		Timeout: cfg.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.sessions * 2,
			MaxIdleConnsPerHost: cfg.sessions * 2,
		},
	}
	sseClient := &http.Client{Transport: client.Transport}

	outcomes := make([]*sessionOutcome, cfg.sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.sessions; i++ {
		out := &sessionOutcome{}
		outcomes[i] = out
		rng := rand.New(rand.NewSource(cfg.seed + int64(i)*104729))
		tr := traces[i%len(traces)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveSession(cfg, client, sseClient, tr, rng, out)
		}()
	}
	wg.Wait()
	return reportStream(outcomes, time.Since(start), cfg.tolerate)
}

// buildTraces loads the replay trace or generates one per session.
func buildTraces(cfg streamConfig) ([]task.Trace, error) {
	if cfg.traceFile != "" {
		f, err := os.Open(cfg.traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := task.ReadTrace(f)
		if err != nil {
			return nil, err
		}
		return []task.Trace{tr}, nil
	}
	p := task.ArrivalParams{
		Process: task.ArrivalProcess(cfg.process),
		Batches: cfg.batches,
		Rate:    cfg.rate,
		BatchLo: cfg.batchLo,
		BatchHi: cfg.batchHi,
	}
	if cfg.regime != "" {
		r, err := task.ParseRegime(cfg.regime)
		if err != nil {
			return nil, err
		}
		p.Regime = r
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	out := make([]task.Trace, cfg.sessions)
	for i := range out {
		tr, err := task.GenerateTrace(rng, p)
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// postJSON POSTs a JSON body with transient-failure retries and decodes
// a 2xx response into v. Non-2xx bodies become errors.
func postJSON(cfg streamConfig, client *http.Client, rng *rand.Rand, method, url string, body []byte, v any, out *sessionOutcome) (int, error) {
	var lastStatus int
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		retryHdr := ""
		var payload []byte
		if err == nil {
			payload, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			retryHdr = resp.Header.Get("Retry-After")
			lastStatus = resp.StatusCode
		}
		lastErr = err
		transient := err != nil || wire.RetryableStatus(lastStatus)
		if err == nil && !wire.RetryableStatus(lastStatus) {
			if lastStatus/100 != 2 {
				return lastStatus, errors.New(httpError(lastStatus, payload))
			}
			if v != nil {
				if err := json.Unmarshal(payload, v); err != nil {
					return lastStatus, fmt.Errorf("bad response body: %v", err)
				}
			}
			return lastStatus, nil
		}
		if !transient || attempt >= cfg.retries {
			if lastErr != nil {
				return 0, lastErr
			}
			return lastStatus, errors.New(httpError(lastStatus, payload))
		}
		time.Sleep(backoffWait(attempt, retryHdr, rng))
	}
}

// driveSession runs one full session lifecycle against the server.
func driveSession(cfg streamConfig, client, sseClient *http.Client, tr task.Trace, rng *rand.Rand, out *sessionOutcome) {
	base := strings.TrimRight(cfg.addr, "/")
	createBody, _ := json.Marshal(wire.SessionCreateRequest{
		Algorithm:  cfg.algorithm,
		Cores:      cfg.cores,
		Model:      cfg.model,
		DebounceMS: cfg.debounceMS,
	})
	var created wire.SessionCreateResponse
	if _, err := postJSON(cfg, client, rng, http.MethodPost, base+"/v1/sessions", createBody, &created, out); err != nil {
		out.err = fmt.Sprintf("create: %v", err)
		return
	}
	out.id = created.ID

	// SSE consumer: counts events and watches for the final report; the
	// stream must end cleanly (server-side close) after DELETE. Every
	// exit path joins the consumer before returning — it writes to out,
	// which the caller reads after the WaitGroup drains.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	sseDone := make(chan struct{})
	go func() {
		defer close(sseDone)
		consumeSSE(sseCtx, cfg, sseClient, base+"/v1/sessions/"+created.ID+"/events", out)
	}()
	defer func() {
		sseCancel()
		<-sseDone
	}()

	for _, a := range tr {
		out.tasks += len(a.Tasks)
		body, _ := json.Marshal(wire.ArrivalRequest{At: a.At, Tasks: a.Tasks})
		var ar wire.ArrivalResponse
		status, err := postJSON(cfg, client, rng, http.MethodPost, base+"/v1/sessions/"+created.ID+"/tasks", body, &ar, out)
		if err != nil {
			// 429 with all tasks shed still carries a JSON body, but after
			// retry exhaustion it lands here; count it as shedding.
			if status == http.StatusTooManyRequests {
				out.shed += len(a.Tasks)
				continue
			}
			out.err = fmt.Sprintf("arrive: %v", err)
			return
		}
		out.admitted += ar.Admitted
		out.shed += ar.Shed
	}

	if cfg.reconnect {
		// A crash may have severed the event stream. Wait for the
		// consumer to resubscribe before finishing the session: the
		// final event and the graceful terminator only land on a live
		// stream, and a resubscribe after the DELETE would find the
		// session gone (404).
		deadline := time.Now().Add(cfg.timeout)
		for !out.subscribed.Load() && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
	}

	// DELETE runs the retroactive clairvoyant-optimum solve, which can
	// far outlast the per-request timeout under many concurrent
	// sessions; use the untimeouted client so a slow finish is not cut
	// off, retried, and met with 404 (the first attempt having already
	// removed the session server-side).
	var final wire.SessionFinalResponse
	if _, err := postJSON(cfg, sseClient, rng, http.MethodDelete, base+"/v1/sessions/"+created.ID, nil, &final, out); err != nil {
		out.err = fmt.Sprintf("finish: %v", err)
		return
	}
	out.finished.Store(true)
	out.replans = final.Replans
	out.completed = final.Completed
	out.missed = len(final.Missed)
	out.ratio = final.CompetitiveRatio
	out.violations = len(final.Violations)

	if !cfg.noVerify && len(final.Tasks) > 0 {
		// Re-validate the realized schedule client-side, exactly like the
		// one-shot path: server-reported violations are not trusted to be
		// the whole story.
		sched := schedule.New(final.Tasks, final.Cores)
		for _, seg := range final.Segments {
			sched.Add(schedule.Segment{
				Task: seg.Task, Core: seg.Core,
				Start: seg.Start, End: seg.End, Frequency: seg.Frequency,
			})
		}
		if violations := check.Validate(sched, final.Tasks, final.Cores, cfg.pm); len(violations) > 0 {
			out.violations += len(violations)
			if out.err == "" {
				out.err = fmt.Sprintf("validator: %v", violations[0])
			}
		}
	}

	// The DELETE closed the session server-side; its stream must end.
	select {
	case <-sseDone:
	case <-time.After(cfg.timeout):
		out.err = "SSE stream did not close after DELETE"
	}
}

// consumeSSE reads a text/event-stream until the server closes it (or
// ctx cancels the subscription), tallying events into out. With
// cfg.reconnect it treats a broken connection as transient — the server
// crashed and will come back with the session recovered from its
// journal — and resubscribes until the graceful terminator arrives.
// Journal durability is at-least-once: the recovered stream replays
// history the client already saw, so replayed ids (id <= lastID) are
// deduplicated rather than counted as sequence errors.
func consumeSSE(ctx context.Context, cfg streamConfig, client *http.Client, url string, out *sessionOutcome) {
	var lastID int64
	for {
		ok, retryable := consumeSSEOnce(ctx, client, url, out, &lastID, cfg.reconnect)
		if ok || !cfg.reconnect || !retryable || ctx.Err() != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// consumeSSEOnce is one SSE subscription attempt. ok reports the stream
// ended with the graceful terminator; retryable reports a failure mode
// worth resubscribing after (connection refused/broken, 5xx) as opposed
// to a definitive one (404: the session is gone).
func consumeSSEOnce(ctx context.Context, client *http.Client, url string, out *sessionOutcome, lastID *int64, dedupe bool) (ok, retryable bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		out.sseErr = fmt.Sprintf("events: %v", err)
		return false, false
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			out.sseErr = fmt.Sprintf("events: %v", err)
		}
		return false, true
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && dedupe && out.finished.Load() {
		// Our own DELETE tore the session down and the crash ate the
		// stream's tail before it could be replayed. Completion is
		// confirmed out-of-band: the DELETE response carried the full
		// final report (a superset of the final event), so the stream
		// counts as terminated cleanly rather than lost.
		out.streamClean = true
		out.finalEvent = true
		out.sseErr = ""
		return true, false
	}
	if resp.StatusCode != http.StatusOK {
		out.sseErr = fmt.Sprintf("events: HTTP %d", resp.StatusCode)
		// In reconnect mode a 404 can be the transient gap between the
		// server-side teardown and our DELETE response landing; keep
		// retrying, the finished flag resolves it next attempt.
		return false, dedupe || resp.StatusCode != http.StatusNotFound
	}
	out.subscribed.Store(true)
	defer out.subscribed.Store(false)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	var id int64
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case strings.HasPrefix(line, ": stream closed"):
			out.streamClean = true
		case line == "" && data != nil:
			if dedupe && id <= *lastID {
				data = nil // replayed history after a resubscribe
				continue
			}
			// Event ids must be gapless 1,2,3,... — both from schedd
			// directly and through the router across a migration; a skip
			// means a lost event, a repeat means a duplicated one.
			if id != *lastID+1 {
				out.seqGaps++
			}
			*lastID = id
			var ev wire.SessionEvent
			if json.Unmarshal(data, &ev) == nil {
				out.events++
				if ev.Type == "final" {
					if out.finalEvent {
						out.dupFinals++
					}
					out.finalEvent = true
				}
			}
			data = nil
		}
	}
	// EOF without a terminal comment means the connection dropped rather
	// than the session closing; streamClean stays false (unless a
	// resubscribe later sees the terminator).
	if out.streamClean {
		out.sseErr = "" // earlier transient failures were recovered from
		return true, false
	}
	return false, true
}

// reportStream prints the aggregate summary and returns the exit code.
func reportStream(outcomes []*sessionOutcome, elapsed time.Duration, tolerate bool) int {
	var sessionsOK, tasks, admitted, shed, replans, completed, missed, violations, events int
	var dirtyStreams, noFinal, seqGaps, dupFinals int
	var ratios []float64
	firstErr := ""
	for _, o := range outcomes {
		tasks += o.tasks
		admitted += o.admitted
		shed += o.shed
		replans += o.replans
		completed += o.completed
		missed += o.missed
		violations += o.violations
		events += o.events
		seqGaps += o.seqGaps
		dupFinals += o.dupFinals
		errMsg := o.err
		if errMsg == "" {
			errMsg = o.sseErr
		}
		if errMsg == "" {
			sessionsOK++
		} else if firstErr == "" {
			firstErr = fmt.Sprintf("session %s: %s", o.id, errMsg)
		}
		if !o.streamClean {
			dirtyStreams++
		}
		if !o.finalEvent {
			noFinal++
		}
		if o.ratio > 0 && !math.IsInf(o.ratio, 0) {
			ratios = append(ratios, o.ratio)
		}
	}
	fmt.Printf("sessions:   %d ok / %d total over %s\n", sessionsOK, len(outcomes), elapsed.Round(time.Millisecond))
	fmt.Printf("tasks:      %d sent, %d admitted, %d shed, %d completed, %d missed deadlines\n",
		tasks, admitted, shed, completed, missed)
	fmt.Printf("replans:    %d total (%.1f per session)\n", replans, float64(replans)/float64(len(outcomes)))
	fmt.Printf("events:     %d received, %d seq gaps, %d sessions without final event, %d streams closed uncleanly, %d duplicate final events\n",
		events, seqGaps, noFinal, dirtyStreams, dupFinals)
	fmt.Printf("validator:  %d failures\n", violations)
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		var sum float64
		for _, r := range ratios {
			sum += r
		}
		fmt.Printf("ratio:      min=%.4f mean=%.4f max=%.4f (realized / clairvoyant optimum, %d sessions)\n",
			ratios[0], sum/float64(len(ratios)), ratios[len(ratios)-1], len(ratios))
	}
	if firstErr != "" {
		fmt.Printf("first error: %s\n", firstErr)
	}

	// An invalid schedule, a missed deadline, an SSE sequence gap or a
	// second final event is never tolerable; other failures respect
	// -tolerate-errors.
	if violations > 0 || missed > 0 || seqGaps > 0 || dupFinals > 0 {
		return 1
	}
	if (sessionsOK < len(outcomes) || dirtyStreams > 0 || noFinal > 0) && !tolerate {
		return 1
	}
	return 0
}
