// Package journal is the durability layer under the dispatch runtime: a
// per-session, segmented, CRC32C-checksummed write-ahead log of
// dispatch.Records.
//
// Layout: <data-dir>/sessions/<session-id>/<%08d>.wal. Each segment is
// a sequence of frames
//
//	[4B payload length LE][4B CRC32C of payload][JSON-encoded Record]
//
// The payload is json.Marshal(rec) byte for byte; Record.AppendJSON
// writes it straight into the frame buffer, which grows at most once.
//
// Segments rotate at Options.SegmentBytes. A create/checkpoint record
// always starts a fresh segment and — once durable — deletes every
// older segment: compaction is just "checkpoint, then drop the prefix",
// and a crash between the two steps is harmless because replay folds
// the old records and then resets at the checkpoint anyway.
//
// The writer decides when to compact, by bytes: once the delta frames
// written since the last checkpoint reach max(SegmentBytes, that
// checkpoint's frame), Append asks the session for a checkpoint
// (dispatch.Record.RequestCheckpoint). Each checkpoint is paid for by
// at least its predecessor's size in deltas, so the checkpoint bytes a
// session writes stay within its delta bytes plus its last checkpoint,
// and total journal bytes grow linearly with the session, although a
// checkpoint carries the whole committed prefix. Recovery reads one
// checkpoint plus max(SegmentBytes, that checkpoint) of deltas, and at
// most one record more.
//
// Durability is a policy, not an absolute: FsyncAlways syncs every
// append, FsyncInterval syncs on a background ticker, FsyncNever leaves
// it to the kernel. A SIGKILL loses nothing under any policy (the data
// is in the page cache once write(2) returns); the policy only decides
// what a power failure can take with it.
//
// What a record means is dispatch's: Replay (see replay.go) folds each
// checksummed frame with dispatch.Replay, under dispatch.Restore's
// well-formed-state rule. It is tolerant by construction: a torn tail —
// a partial final frame in the final segment — is truncated cleanly,
// while a bad frame or refused record anywhere else is corruption that
// fails that one session's recovery, never the process.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/fault"
)

// Defaults and framing constants.
const (
	// DefaultSegmentBytes is the rotation threshold.
	DefaultSegmentBytes = 1 << 20
	// DefaultFsyncInterval is the background sync period under
	// FsyncInterval.
	DefaultFsyncInterval = 100 * time.Millisecond
	// maxRecordBytes bounds one frame's payload; anything larger in a
	// length field is corruption, not a record.
	maxRecordBytes = 32 << 20

	frameHeader = 8
	segSuffix   = ".wal"
	// A Store keeps up to keptFrames spare frame buffers of at most
	// maxKeptFrame bytes each: enough that a checkpoint, the largest
	// record a session writes, finds a buffer that already fits, while
	// no number of sessions pins more than keptFrames·maxKeptFrame.
	keptFrames   = 4
	maxKeptFrame = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Policy selects when appended records are fsynced.
type Policy int

const (
	// FsyncInterval (the default) syncs all open logs on a background
	// ticker: bounded loss on power failure, no per-append syscall.
	FsyncInterval Policy = iota
	// FsyncAlways syncs every append before it is acknowledged.
	FsyncAlways
	// FsyncNever leaves write-back entirely to the kernel.
	FsyncNever
)

// ParsePolicy parses "always" | "interval" | "never".
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncInterval, fmt.Errorf("journal: unknown fsync policy %q (want always|interval|never)", s)
}

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// Options tunes a Store.
type Options struct {
	// SegmentBytes is the rotation threshold (0 selects
	// DefaultSegmentBytes).
	SegmentBytes int64
	// Fsync selects the durability policy.
	Fsync Policy
	// FsyncInterval is the background sync period under FsyncInterval
	// (0 selects DefaultFsyncInterval).
	FsyncInterval time.Duration
	// Faults optionally injects disk faults (fsync error, short write,
	// torn tail) at the write path's seams.
	Faults *fault.Injector
}

// Store owns the data directory and the open per-session writers.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	writers map[string]*Writer
	closed  bool

	// frames holds spare buffers that Append frames records in.
	frames chan []byte

	stop chan struct{}
	done chan struct{}
}

// Open prepares <dir>/sessions and, under FsyncInterval, starts the
// background sync loop.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("journal: empty data dir")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	st := &Store{
		dir:     dir,
		opts:    opts,
		writers: make(map[string]*Writer),
		frames:  make(chan []byte, keptFrames),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if opts.Fsync == FsyncInterval {
		go st.syncLoop()
	} else {
		close(st.done)
	}
	return st, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) sessionsDir() string { return filepath.Join(st.dir, "sessions") }

// SessionDir returns the log directory for id.
func (st *Store) SessionDir(id string) (string, error) {
	if !dispatch.ValidID(id) {
		return "", fmt.Errorf("journal: invalid session id %q", id)
	}
	return filepath.Join(st.sessionsDir(), id), nil
}

// Sessions lists the session IDs that have a log directory.
func (st *Store) Sessions() ([]string, error) {
	entries, err := os.ReadDir(st.sessionsDir())
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && dispatch.ValidID(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Remove closes the session's open Writer, if any, and deletes its log
// directory. The close syncs as Writer.Close does; Remove also works
// after the caller has closed the Writer itself.
func (st *Store) Remove(id string) error {
	dir, err := st.SessionDir(id)
	if err != nil {
		return err
	}
	st.mu.Lock()
	w := st.writers[id]
	st.mu.Unlock()
	if w != nil {
		_ = w.Close() // a failed sync is moot: the log goes next
	}
	return os.RemoveAll(dir)
}

// Close stops the sync loop and closes every open writer.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		<-st.done
		return nil
	}
	st.closed = true
	open := make([]*Writer, 0, len(st.writers))
	for _, w := range st.writers {
		open = append(open, w)
	}
	close(st.stop)
	st.mu.Unlock()
	var first error
	for _, w := range open {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	<-st.done
	return first
}

// syncLoop flushes dirty writers every FsyncInterval.
func (st *Store) syncLoop() {
	defer close(st.done)
	tick := time.NewTicker(st.opts.FsyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-tick.C:
			st.mu.Lock()
			open := make([]*Writer, 0, len(st.writers))
			for _, w := range st.writers {
				open = append(open, w)
			}
			st.mu.Unlock()
			for _, w := range open {
				_ = w.Sync()
			}
		}
	}
}

// segref is one on-disk segment.
type segref struct {
	index int
	path  string
}

// listSegments returns dir's segments in index order.
func listSegments(dir string) ([]segref, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segref
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSuffix(name, segSuffix))
		if err != nil || idx <= 0 {
			continue
		}
		segs = append(segs, segref{index: idx, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

func segPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", index, segSuffix))
}

// Writer appends one session's records. Safe for concurrent use, though
// the session serializes appends under its own mutex anyway.
type Writer struct {
	st  *Store
	id  string
	dir string

	mu     sync.Mutex
	f      *os.File
	index  int
	size   int64
	dirty  bool
	broken error
	closed bool
	// deltaBytes counts the frames written since the last create or
	// checkpoint record (or since the writer opened), checkpointBytes
	// is that record's frame size: the compaction rule's two sides.
	deltaBytes      int64
	checkpointBytes int64
}

// Writer opens (or continues) the log for id. An existing log gets its
// tail repaired first: a torn final frame in the final segment is
// truncated away, so appends resume at a clean record boundary. A bad
// frame that is NOT at the tail is corruption and refuses the writer —
// callers replay before writing, so this only guards misuse.
func (st *Store) Writer(id string) (*Writer, error) {
	dir, err := st.SessionDir(id)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, fmt.Errorf("journal: store closed")
	}
	if st.writers[id] != nil {
		return nil, fmt.Errorf("%w: session %s", ErrWriterOpen, id)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{st: st, id: id, dir: dir}
	if len(segs) == 0 {
		w.index = 1
		f, err := os.OpenFile(segPath(dir, 1), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		w.f = f
	} else {
		last := segs[len(segs)-1]
		size, err := repairTail(last.path)
		if err != nil {
			return nil, fmt.Errorf("journal: session %s: %w", id, err)
		}
		f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if _, err := f.Seek(size, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
		w.index = last.index
		w.size = size
		w.f = f
	}
	st.writers[id] = w
	return w, nil
}

// repairTail truncates a torn final frame off the segment at path and
// returns the surviving size. A bad frame with valid data after it is
// mid-log corruption and an error.
func repairTail(path string) (int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	consumed, tail, serr := scanFrames(buf, nil)
	switch tail {
	case tailClean:
		return int64(consumed), nil
	case tailTorn:
		if err := os.Truncate(path, int64(consumed)); err != nil {
			return 0, err
		}
		return int64(consumed), nil
	default:
		return 0, fmt.Errorf("mid-log corruption at offset %d: %w", consumed, serr)
	}
}

// Append frames, checksums, and writes rec, then applies the fsync
// policy. Create/checkpoint records additionally start a fresh segment
// and — after an unconditional sync — delete every older segment
// (compaction). A delta record that brings the deltas since the last
// checkpoint to max(SegmentBytes, that checkpoint's size) requests the
// next checkpoint on rec. The error surface is sticky for real I/O
// failures: the session treats any append error as entry into degraded
// mode.
func (w *Writer) Append(rec *dispatch.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("journal: writer closed")
	}
	if w.broken != nil {
		return w.broken
	}
	// The payload is encoded straight behind room for the header, in a
	// spare buffer that goes back to the store once the frame is written.
	var spare []byte
	select {
	case spare = <-w.st.frames:
	default:
	}
	frame, err := rec.AppendJSON(append(spare, make([]byte, frameHeader)...))
	defer w.st.keepFrame(frame)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	payload := frame[frameHeader:]
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("journal: record of %d bytes exceeds the %d-byte bound", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))

	if rec.Kind == dispatch.RecCreate || rec.Kind == dispatch.RecCheckpoint {
		return w.checkpointLocked(frame)
	}
	if w.size > 0 && w.size+int64(len(frame)) > w.st.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if err := w.writeFrameLocked(frame); err != nil {
		return err
	}
	if w.broken != nil {
		// Injected torn tail: the write "succeeded" but the process is
		// considered crashed from here on.
		return nil
	}
	w.deltaBytes += int64(len(frame))
	if w.deltaBytes >= max(w.st.opts.SegmentBytes, w.checkpointBytes) {
		rec.RequestCheckpoint()
	}
	if w.st.opts.Fsync == FsyncAlways {
		return w.syncNowLocked()
	}
	return nil
}

// keepFrame offers a written frame's buffer for reuse.
func (st *Store) keepFrame(frame []byte) {
	if cap(frame) > maxKeptFrame {
		return
	}
	select {
	case st.frames <- frame[:0]:
	default:
	}
}

// writeFrameLocked writes one frame, threading the disk-fault seams. A
// failed or short write is truncated back to the last record boundary
// so the log stays parseable.
func (w *Writer) writeFrameLocked(frame []byte) error {
	if inj := w.st.opts.Faults; inj != nil {
		if inj.Should(fault.JournalTornTail) {
			_, _ = w.f.Write(frame[:len(frame)/2])
			w.broken = &fault.Error{Point: fault.JournalTornTail}
			return nil
		}
		if inj.Should(fault.JournalShortWrite) {
			n, _ := w.f.Write(frame[:len(frame)/2])
			w.truncateBackLocked(int64(n))
			return &fault.Error{Point: fault.JournalShortWrite}
		}
	}
	n, err := w.f.Write(frame)
	if err != nil {
		w.truncateBackLocked(int64(n))
		return fmt.Errorf("journal: %w", err)
	}
	w.size += int64(len(frame))
	w.dirty = true
	return nil
}

// truncateBackLocked undoes a partial frame write. If even the truncate
// fails the writer is broken for good: the tail may be torn on disk,
// which replay handles, but appending after it would bury the tear
// mid-log.
func (w *Writer) truncateBackLocked(wrote int64) {
	if wrote == 0 {
		return
	}
	if err := w.f.Truncate(w.size); err != nil {
		w.broken = fmt.Errorf("journal: truncate after short write: %w", err)
		return
	}
	if _, err := w.f.Seek(w.size, 0); err != nil {
		w.broken = fmt.Errorf("journal: %w", err)
	}
}

// syncNowLocked fsyncs the current segment (fault seam included).
func (w *Writer) syncNowLocked() error {
	if !w.dirty {
		return nil
	}
	if inj := w.st.opts.Faults; inj != nil && inj.Should(fault.JournalFsyncError) {
		return &fault.Error{Point: fault.JournalFsyncError}
	}
	if err := w.f.Sync(); err != nil {
		w.broken = fmt.Errorf("journal: %w", err)
		return w.broken
	}
	w.dirty = false
	return nil
}

// Sync flushes pending writes (the FsyncInterval loop calls this).
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.broken != nil {
		return w.broken
	}
	return w.syncNowLocked()
}

// rotateLocked seals the current segment and opens the next one.
func (w *Writer) rotateLocked() error {
	if w.st.opts.Fsync != FsyncNever {
		if err := w.syncNowLocked(); err != nil {
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		w.broken = fmt.Errorf("journal: %w", err)
		return w.broken
	}
	f, err := os.OpenFile(segPath(w.dir, w.index+1), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		w.broken = fmt.Errorf("journal: %w", err)
		return w.broken
	}
	w.index++
	w.f = f
	w.size = 0
	w.dirty = false
	return nil
}

// checkpointLocked writes frame as the first record of a fresh segment,
// syncs it unconditionally (deleting history on the strength of an
// unsynced checkpoint would trade durable records for page cache), and
// then drops every older segment.
func (w *Writer) checkpointLocked(frame []byte) error {
	if w.size > 0 {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if err := w.writeFrameLocked(frame); err != nil {
		return err
	}
	if w.broken != nil {
		return nil // injected torn tail mid-checkpoint: "crashed"
	}
	if err := w.syncNowLocked(); err != nil {
		return err
	}
	w.deltaBytes, w.checkpointBytes = 0, int64(len(frame))
	segs, err := listSegments(w.dir)
	if err != nil {
		return nil // compaction is an optimization; the log is correct
	}
	for _, seg := range segs {
		if seg.index < w.index {
			_ = os.Remove(seg.path)
		}
	}
	return nil
}

// Close syncs (unless FsyncNever) and closes the log.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	var err error
	if w.broken == nil && w.st.opts.Fsync != FsyncNever {
		err = w.syncNowLocked()
	}
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	w.mu.Unlock()

	w.st.mu.Lock()
	if w.st.writers[w.id] == w {
		delete(w.st.writers, w.id)
	}
	w.st.mu.Unlock()
	return err
}

// ErrWriterOpen reports an attempt to open a second Writer on a session
// log that already has one in this Store — the serving layer maps it to
// a duplicate-session conflict.
var ErrWriterOpen = errors.New("journal: already has an open writer")
