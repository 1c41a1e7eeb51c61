package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/check"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/server/wire"
	"repro/internal/task"
)

// TestSnapshotRestoreAcrossProcesses round-trips a live session between
// two independent server instances over HTTP only — the cluster
// router's migration path, exercised without the router: snapshot on
// backend A, restore on backend B, keep driving the session on B. The
// committed prefix must carry over verbatim, the event sequence must
// continue from the snapshot's high-water mark without gaps, and the
// realized schedule must still pass the universal validator.
func TestSnapshotRestoreAcrossProcesses(t *testing.T) {
	_, hsA := newTestServer(t, Config{})
	_, hsB := newTestServer(t, Config{})

	created := createSession(t, hsA.URL, wire.SessionCreateRequest{
		Cores: 2, Model: wire.ModelJSON{Alpha: 3, P0: 0.05},
	})
	id := created.ID

	resp, ar := arrive(t, hsA.URL, id, 0, mustTasks(t,
		task.Task{Release: 0, Work: 2, Deadline: 8},
		task.Task{Release: 0, Work: 1, Deadline: 5},
	))
	if resp.StatusCode != http.StatusOK || ar.Admitted != 2 {
		t.Fatalf("arrive A #1: status %d admitted %d", resp.StatusCode, ar.Admitted)
	}
	resp, ar = arrive(t, hsA.URL, id, 3, mustTasks(t,
		task.Task{Release: 3, Work: 2, Deadline: 12},
	))
	if resp.StatusCode != http.StatusOK || ar.Admitted != 1 {
		t.Fatalf("arrive A #2: status %d admitted %d", resp.StatusCode, ar.Admitted)
	}

	// Snapshot A. The session keeps running there; the snapshot is a
	// portable capture, not a teardown.
	sresp, err := http.Get(hsA.URL + "/v1/sessions/" + id + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snapResp wire.SessionSnapshotResponse
	if err := json.NewDecoder(sresp.Body).Decode(&snapResp); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || snapResp.Snapshot == nil {
		t.Fatalf("snapshot: status %d snapshot %v", sresp.StatusCode, snapResp.Snapshot)
	}
	snap := snapResp.Snapshot
	if snap.Seq == 0 {
		t.Fatal("snapshot carries no event high-water mark")
	}
	committedA := getCommitted(t, hsA.URL, id)

	// Restore on B under the original ID.
	body, err := json.Marshal(wire.SessionRestoreRequest{ID: id, Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	rresp, payload := postJSON(t, hsB.URL+"/v1/sessions/restore", body)
	if rresp.StatusCode != http.StatusCreated {
		t.Fatalf("restore status %d: %s", rresp.StatusCode, payload)
	}
	var restored wire.SessionCreateResponse
	if err := json.Unmarshal(payload, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.ID != id || restored.Cores != 2 {
		t.Fatalf("restored = %+v", restored)
	}

	// The committed prefix must survive the process hop byte-for-byte.
	committedB := getCommitted(t, hsB.URL, id)
	if len(committedB) < len(committedA) {
		t.Fatalf("B committed %d segments, A had %d", len(committedB), len(committedA))
	}
	for i, seg := range committedA {
		if committedB[i] != seg {
			t.Fatalf("committed[%d] diverged: A %+v, B %+v", i, seg, committedB[i])
		}
	}

	// Keep driving the session on B: the stream's sequence numbers must
	// continue from the snapshot's Seq with no gap and no repeat.
	stream := openSSE(t, hsB.URL+"/v1/sessions/"+id+"/events")
	resp, ar = arrive(t, hsB.URL, id, 6, mustTasks(t,
		task.Task{Release: 6, Work: 1, Deadline: 10},
	))
	if resp.StatusCode != http.StatusOK || ar.Admitted != 1 {
		t.Fatalf("arrive B: status %d admitted %d", resp.StatusCode, ar.Admitted)
	}
	dresp, final := deleteSession(t, hsB.URL, id)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}

	events := stream.collectUntilClosed(t)
	if len(events) == 0 {
		t.Fatal("no events on the restored stream")
	}
	// snap.Seq is the next sequence number the session would assign, and
	// SSE ids are 1-based (Seq+1), so the restored stream's ids start
	// exactly at snap.Seq+1 — no gap, no repeat.
	last := snap.Seq
	for _, ev := range events {
		seq, err := strconv.ParseInt(ev.id, 10, 64)
		if err != nil {
			t.Fatalf("bad SSE id %q: %v", ev.id, err)
		}
		if seq != last+1 {
			t.Fatalf("sequence break: got %d after %d (snapshot Seq %d)", seq, last, snap.Seq)
		}
		last = seq
	}

	// Final accounting: all four tasks completed, none missed, and the
	// realized schedule revalidates client-side.
	if final.Completed != 4 || len(final.Missed) != 0 || final.Shed != 0 {
		t.Fatalf("final: completed %d missed %v shed %d", final.Completed, final.Missed, final.Shed)
	}
	if len(final.Violations) != 0 {
		t.Fatalf("server-side violations: %v", final.Violations)
	}
	sched := schedule.New(final.Tasks, final.Cores)
	for _, seg := range final.Segments {
		sched.Add(schedule.Segment{
			Task: seg.Task, Core: seg.Core,
			Start: seg.Start, End: seg.End, Frequency: seg.Frequency,
		})
	}
	pm := power.Model{Gamma: 1, Alpha: 3, P0: 0.05}
	if violations := check.Validate(sched, final.Tasks, final.Cores, pm); len(violations) > 0 {
		t.Fatalf("validator failed on restored session's schedule: %v", violations)
	}

	// A's copy is still alive (snapshots don't disturb); reap it the way
	// the router does after a migration.
	dresp, _ = deleteSession(t, hsA.URL, id)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("reaping A's copy: status %d", dresp.StatusCode)
	}
}

// getCommitted reads a session's committed prefix over HTTP.
func getCommitted(t *testing.T, baseURL, id string) []wire.SegmentJSON {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/sessions/" + id + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wire.SessionScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule status %d", resp.StatusCode)
	}
	return out.Committed
}
