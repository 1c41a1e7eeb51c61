package server

import (
	"context"
	"encoding/json"

	"repro/internal/dispatch"
	"repro/internal/journal"
	"repro/internal/server/wire"
)

// RecoveryReport summarizes one startup journal recovery pass.
type RecoveryReport struct {
	// Recovered counts sessions rebuilt from their logs and re-adopted.
	Recovered int
	// Failed counts sessions whose logs could not be recovered (mid-log
	// corruption, unknown algorithm, restore failure, session-limit
	// overflow). Their logs are kept on disk for forensics; the rest of
	// the fleet is unaffected.
	Failed int
	// Collected counts finished or empty logs garbage-collected.
	Collected int
}

// Recover opens the journal store in Config.DataDir and rebuilds every
// unfinished journaled session: replay the log, restore the session
// (re-planning its residual through the verified solve pipeline), and
// re-adopt it under its original ID so clients resume where they left
// off. Finished and empty logs are garbage-collected; a corrupt log
// fails only its own session — the error is reported and counted, and
// recovery moves on. Call once after New, before serving traffic; a
// no-op when DataDir is empty.
func (s *Server) Recover(ctx context.Context) (RecoveryReport, error) {
	var rep RecoveryReport
	if s.cfg.DataDir == "" {
		return rep, nil
	}
	st, err := journal.Open(s.cfg.DataDir, journal.Options{
		Fsync:  s.cfg.Fsync,
		Faults: s.cfg.Faults,
	})
	if err != nil {
		return rep, err
	}
	s.jmu.Lock()
	s.journal = st
	s.jmu.Unlock()

	ids, err := st.Sessions()
	if err != nil {
		return rep, err
	}
	for _, id := range ids {
		r := st.Replay(id)
		switch {
		case r.Err != nil:
			rep.Failed++
			s.metrics.sessionsRecoveryFailed.Add(1)
			s.logRecoveryFailure(id, r.Err)
		case r.Snapshot == nil, r.Finished:
			// Nothing to resurrect: the session finished (or its log never
			// got a first record). Reclaim the directory.
			rep.Collected++
			if err := st.Remove(id); err != nil {
				s.cfg.Logger.Printf("msg=%q session=%s err=%q", "journal gc failed", id, err.Error())
			}
		default:
			if err := s.recoverSession(ctx, id, r); err != nil {
				rep.Failed++
				s.metrics.sessionsRecoveryFailed.Add(1)
				s.logRecoveryFailure(id, err)
				continue
			}
			rep.Recovered++
			s.metrics.sessionsRecovered.Add(1)
			s.cfg.Logger.Printf("msg=%q session=%s records=%d segments=%d truncated=%v seq=%d",
				"session recovered", id, r.Records, r.Segments, r.Truncated, r.Snapshot.Seq)
		}
	}
	return rep, nil
}

// recoverSession rebuilds one unfinished session from its replayed
// state: same config shape as POST /v1/sessions/restore, plus a fresh
// journal writer continuing the same log (the restore writes a
// checkpoint of the recovered state, compacting away the history it
// folded).
func (s *Server) recoverSession(ctx context.Context, id string, r *journal.SessionReplay) error {
	solve, err := s.sessionSolve(r.Snapshot.Algorithm)
	if err != nil {
		return err
	}
	w, err := s.journal.Writer(id)
	if err != nil {
		return err
	}
	backlog := s.cfg.SessionBacklog
	if backlog > s.cfg.MaxTasks {
		backlog = s.cfg.MaxTasks
	}
	sess, err := dispatch.Restore(ctx, r.Snapshot, dispatch.Config{
		Backlog: backlog,
		Solve:   solve,
		Hooks:   s.sessionHooks(),
		// The create-time SkipRatio choice is not journaled; recovered
		// sessions skip the clairvoyant-optimum solve on finish —
		// competitive-ratio accounting across a crash is best-effort.
		SkipRatio: true,
		Journal:   s.metered(w),
	})
	if err != nil {
		w.Close()
		return err
	}
	if err := s.sessions.Adopt(id, sess); err != nil {
		sess.Close()
		w.Close()
		return err
	}
	s.trackWriter(id, w)
	return nil
}

// logRecoveryFailure emits one structured line per unrecoverable
// session, carrying the same wire.ErrorEnvelope shape clients see — so
// log scrapers and humans read one error vocabulary everywhere.
func (s *Server) logRecoveryFailure(id string, err error) {
	env := wire.ErrorEnvelope{Version: wire.Version}
	env.Error = wire.ErrorDetail{Code: wire.CodeInternal, Message: err.Error(), Retryable: false}
	b, _ := json.Marshal(env)
	s.cfg.Logger.Printf("msg=%q session=%s report=%s", "session recovery failed", id, b)
}

// meteredJournal counts records and append errors into the server
// metrics on their way to the session's log writer. The writer's
// checkpoint request rides on the record, so it reaches the session.
type meteredJournal struct {
	w *journal.Writer
	m *Metrics
}

func (j meteredJournal) Append(rec *dispatch.Record) error {
	err := j.w.Append(rec)
	j.m.journalRecords.Add(1)
	if err != nil {
		j.m.journalErrors.Add(1)
	}
	return err
}

func (s *Server) metered(w *journal.Writer) dispatch.Journal {
	return meteredJournal{w: w, m: s.metrics}
}

// trackWriter registers an open session-log writer for later teardown.
func (s *Server) trackWriter(id string, w *journal.Writer) {
	s.jmu.Lock()
	s.jwriters[id] = w
	s.jmu.Unlock()
}

// dropJournal closes the session's log writer and, when remove is set,
// deletes its log directory (clean delete / eviction: the session is
// fully accounted and must not be resurrected). No-op without a journal.
func (s *Server) dropJournal(id string, remove bool) {
	s.jmu.Lock()
	st := s.journal
	w := s.jwriters[id]
	delete(s.jwriters, id)
	s.jmu.Unlock()
	if st == nil {
		return
	}
	if w != nil {
		w.Close()
	}
	if remove {
		if err := st.Remove(id); err != nil {
			s.cfg.Logger.Printf("msg=%q session=%s err=%q", "journal gc failed", id, err.Error())
		}
	}
}

// journalStore returns the open store (nil when journaling is off).
func (s *Server) journalStore() *journal.Store {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.journal
}

// closeJournalStore closes the store (which syncs and closes every
// registered writer). Idempotent.
func (s *Server) closeJournalStore() {
	s.jmu.Lock()
	st := s.journal
	s.journal = nil
	s.jwriters = make(map[string]*journal.Writer)
	s.jmu.Unlock()
	if st != nil {
		st.Close()
	}
}
