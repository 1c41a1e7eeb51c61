package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/dispatch"
)

// SessionReplay is one session's recovery verdict.
type SessionReplay struct {
	// ID is the session ID (the log directory name).
	ID string
	// Snapshot is the folded state: restorable when Err is nil. It is
	// also populated on a best-effort basis when Err is set (the prefix
	// before the corruption), for forensics — never for recovery.
	Snapshot *dispatch.Snapshot
	// Finished reports a finish record: the session completed or was
	// deliberately evicted, and recovery must NOT resurrect it.
	Finished bool
	// FinishReason is the finish record's reason ("finished", "evicted").
	FinishReason string
	// Records counts successfully folded records.
	Records int
	// Segments counts the log's segment files.
	Segments int
	// Truncated reports that a torn tail (partial final frame) was
	// dropped — expected after a crash under a lazy fsync policy.
	Truncated bool
	// Err is non-nil on mid-log corruption (bad length, CRC mismatch
	// with valid data after it, undecodable or inconsistent record):
	// this session's recovery fails soft; others are unaffected.
	Err error
}

// Replay folds session id's log. It never panics on any byte sequence;
// see SessionReplay for the verdict taxonomy.
func (st *Store) Replay(id string) *SessionReplay {
	r := &SessionReplay{ID: id}
	dir, err := st.SessionDir(id)
	if err != nil {
		r.Err = err
		return r
	}
	replayDir(dir, r)
	return r
}

// ReplayDir folds the log in dir (a <sessions>/<id> directory) without
// a Store — the schedjournal CLI's entry point.
func ReplayDir(id, dir string) *SessionReplay {
	r := &SessionReplay{ID: id}
	replayDir(dir, r)
	return r
}

func replayDir(dir string, r *SessionReplay) {
	segs, err := listSegments(dir)
	if err != nil {
		r.Err = err
		return
	}
	r.Segments = len(segs)
	f := &fold{}
	for i, seg := range segs {
		buf, err := os.ReadFile(seg.path)
		if err != nil {
			r.Err = err
			r.Snapshot = f.result()
			return
		}
		isLast := i == len(segs)-1
		consumed, tail, serr := scanFrames(buf, f.apply)
		r.Records = f.records
		switch tail {
		case tailClean:
		case tailTorn:
			if !isLast {
				// Rotation only happens after a complete frame, so a
				// short frame mid-log is corruption, not a torn tail.
				r.Err = fmt.Errorf("segment %08d: torn frame before the final segment (offset %d)", seg.index, consumed)
				r.Snapshot = f.result()
				return
			}
			r.Truncated = true
		case tailCorrupt:
			r.Err = fmt.Errorf("segment %08d: %w (offset %d)", seg.index, serr, consumed)
			r.Snapshot = f.result()
			return
		}
	}
	r.Snapshot = f.result()
	r.Finished = f.finished
	r.FinishReason = f.finishReason
}

// tailState classifies how a segment scan ended.
type tailState int

const (
	tailClean   tailState = iota // every byte consumed as valid frames
	tailTorn                     // partial/short final frame: truncatable
	tailCorrupt                  // bad frame with data after it, bad length, or bad record
)

// scanFrames walks buf frame by frame, invoking fn on each CRC-verified
// payload. It returns the clean-prefix length and the tail verdict. An
// fn error is corruption (the frame was durable and checksummed, so its
// content is authoritative — if it cannot be applied, the log lies).
func scanFrames(buf []byte, fn func(payload []byte) error) (consumed int, tail tailState, err error) {
	off := 0
	for off < len(buf) {
		if len(buf)-off < frameHeader {
			return off, tailTorn, nil
		}
		n := binary.LittleEndian.Uint32(buf[off : off+4])
		sum := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		if n == 0 || n > maxRecordBytes {
			return off, tailCorrupt, fmt.Errorf("invalid frame length %d", n)
		}
		end := off + frameHeader + int(n)
		if end > len(buf) || end < off {
			return off, tailTorn, nil
		}
		payload := buf[off+frameHeader : end]
		if crc32.Checksum(payload, castagnoli) != sum {
			if end == len(buf) {
				// A bit flip in the final frame and a torn write are
				// indistinguishable here; truncating is the safe read.
				return off, tailTorn, nil
			}
			return off, tailCorrupt, fmt.Errorf("crc mismatch")
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, tailCorrupt, err
			}
		}
		off = end
	}
	return off, tailClean, nil
}

// fold is the replay accumulator: create/checkpoint records reset it,
// delta records mutate it, counters are last-record-wins.
type fold struct {
	snap         *dispatch.Snapshot
	events       []dispatch.Event
	records      int
	finished     bool
	finishReason string
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func (f *fold) apply(payload []byte) error {
	var rec dispatch.Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("undecodable record: %w", err)
	}
	switch rec.Kind {
	case dispatch.RecCreate, dispatch.RecCheckpoint:
		if rec.Snapshot == nil {
			return fmt.Errorf("%s record without a snapshot", rec.Kind)
		}
		f.snap = rec.Snapshot
		f.events = append(f.events[:0], rec.Snapshot.Events...)
		f.snap.Events = nil
	case dispatch.RecArrival:
		if f.snap == nil {
			return errNoCheckpoint
		}
		for _, ts := range rec.Tasks {
			if !finite(ts.Release, ts.Work, ts.Deadline, ts.Remaining, ts.ArrivedAt) || ts.Work <= 0 {
				return fmt.Errorf("arrival with non-finite or non-positive task parameters")
			}
			f.snap.Tasks = append(f.snap.Tasks, ts)
		}
	case dispatch.RecCommit:
		if f.snap == nil {
			return errNoCheckpoint
		}
		for _, seg := range rec.Segments {
			if seg.Task < 0 || seg.Task >= len(f.snap.Tasks) {
				return fmt.Errorf("commit references unknown task %d", seg.Task)
			}
			if !finite(seg.Start, seg.End, seg.Frequency) {
				return fmt.Errorf("commit with non-finite segment")
			}
			f.snap.Committed = append(f.snap.Committed, seg)
		}
		for _, d := range rec.Deltas {
			if d.Task < 0 || d.Task >= len(f.snap.Tasks) {
				return fmt.Errorf("commit delta references unknown task %d", d.Task)
			}
			if !finite(d.Remaining, d.CompletedAt) {
				return fmt.Errorf("commit delta with non-finite state")
			}
			ts := &f.snap.Tasks[d.Task]
			ts.Remaining = d.Remaining
			ts.Done = d.Done
			ts.CompletedAt = d.CompletedAt
		}
	case dispatch.RecShed:
		if f.snap == nil {
			return errNoCheckpoint
		}
		for _, id := range rec.ShedIDs {
			if id < 0 || id >= len(f.snap.Tasks) {
				return fmt.Errorf("shed references unknown task %d", id)
			}
			f.snap.Tasks[id].Shed = true
		}
	case dispatch.RecReplan, dispatch.RecError:
		if f.snap == nil {
			return errNoCheckpoint
		}
	case dispatch.RecFinish:
		if f.snap == nil {
			return errNoCheckpoint
		}
		f.finished = true
		f.finishReason = rec.Reason
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	if !finite(rec.Clock, rec.Realized) {
		return fmt.Errorf("record with non-finite counters")
	}
	f.snap.Now = rec.Clock
	f.snap.Seq = rec.Seq
	f.snap.Realized = rec.Realized
	f.snap.Replans = rec.Replans
	f.snap.Commits = rec.Commits
	f.snap.ShedCount = rec.ShedCount
	f.events = append(f.events, rec.Events...)
	// The recovered history is as long as the live session's ring.
	if len(f.events) > dispatch.EventHistory {
		f.events = append(f.events[:0], f.events[len(f.events)-dispatch.EventHistory:]...)
	}
	f.records++
	return nil
}

// result finalizes the folded snapshot (attaching the recovered event
// ring); nil when no create/checkpoint was ever folded.
func (f *fold) result() *dispatch.Snapshot {
	if f.snap == nil {
		return nil
	}
	f.snap.Events = append([]dispatch.Event(nil), f.events...)
	return f.snap
}
