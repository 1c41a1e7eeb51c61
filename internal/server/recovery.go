package server

import (
	"context"
	"encoding/json"
	"fmt"

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
			_, err := s.openSession(sessionOpen{
				kind:      openRecover,
				id:        id,
				algorithm: r.Snapshot.Algorithm,
				// The create-time SkipRatio choice is not journaled;
				// recovered sessions skip the clairvoyant-optimum solve on
				// finish — competitive-ratio accounting across a crash is
				// best-effort.
				skipRatio: true,
				// The restore writes a checkpoint of the recovered state to
				// the same log, compacting away the history it folded.
				build: func(cfg dispatch.Config) (*dispatch.Session, error) {
					return dispatch.Restore(ctx, r.Snapshot, cfg)
				},
				logFields: fmt.Sprintf(" records=%d segments=%d truncated=%v seq=%d",
					r.Records, r.Segments, r.Truncated, r.Snapshot.Seq),
			})
			if err != nil {
				rep.Failed++
				s.metrics.sessionsRecoveryFailed.Add(1)
				s.logRecoveryFailure(id, err)
				continue
			}
			rep.Recovered++
		}
	}
	return rep, nil
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

// dropJournal closes the session's log writer and deletes its log
// (clean delete, TTL eviction): the session is fully accounted and must
// not come back on restart. No-op without a journal.
func (s *Server) dropJournal(id string) {
	st := s.journalStore()
	if st == nil {
		return
	}
	if err := st.Remove(id); err != nil {
		s.cfg.Logger.Printf("msg=%q session=%s err=%q", "journal gc failed", id, err.Error())
	}
}

// journalStore returns the open store (nil when journaling is off).
func (s *Server) journalStore() *journal.Store {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.journal
}

// closeJournalStore closes the store (which syncs and closes every open
// writer). Idempotent.
func (s *Server) closeJournalStore() {
	s.jmu.Lock()
	st := s.journal
	s.journal = nil
	s.jmu.Unlock()
	if st != nil {
		st.Close()
	}
}
