package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/dispatch"
)

// SessionReplay is one session's recovery verdict.
type SessionReplay struct {
	// ID is the session ID (the log directory name).
	ID string
	// Replay is the fold of the records read (see dispatch.Replay). Its
	// Snapshot is restorable when Err is nil. When Err is set it holds
	// the prefix before the corruption, for forensics — never for
	// recovery — and Finished is false.
	dispatch.Replay
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
	dir, err := st.SessionDir(id)
	if err != nil {
		return &SessionReplay{ID: id, Err: err}
	}
	return ReplayDir(id, dir)
}

// ReplayDir folds the log in dir (a <sessions>/<id> directory) without
// a Store — the schedjournal CLI's entry point.
func ReplayDir(id, dir string) *SessionReplay {
	r := &SessionReplay{ID: id}
	if r.Err = r.scanDir(dir); r.Err != nil {
		r.Finished, r.FinishReason = false, ""
	}
	return r
}

// scanDir folds every frame of dir's segments in order.
func (r *SessionReplay) scanDir(dir string) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	r.Segments = len(segs)
	for i, seg := range segs {
		buf, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		consumed, tail, serr := scanFrames(buf, r.apply)
		switch tail {
		case tailTorn:
			if i < len(segs)-1 {
				// Rotation only happens after a complete frame, so a
				// short frame mid-log is corruption, not a torn tail.
				return fmt.Errorf("segment %08d: torn frame before the final segment (offset %d)", seg.index, consumed)
			}
			r.Truncated = true
		case tailCorrupt:
			return fmt.Errorf("segment %08d: %w (offset %d)", seg.index, serr, consumed)
		}
	}
	return nil
}

// apply decodes one frame's record and folds it.
func (r *SessionReplay) apply(payload []byte) error {
	var rec dispatch.Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("undecodable record: %w", err)
	}
	return r.Apply(&rec)
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
