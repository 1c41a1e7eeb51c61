package server

import (
	"io"
	"strconv"

	"repro/internal/dispatch"
	"repro/internal/segjson"
)

// sseWriter serializes session events in the text/event-stream format:
// an id: line carrying the session-monotonic sequence number, an event:
// line carrying the event type, and a data: line carrying the JSON
// payload, terminated by a blank line. Events are appended to one
// reused buffer and written together, so a burst of events costs one
// write and one flush, and a steady stream allocates nothing per event.
type sseWriter struct {
	w   io.Writer
	buf []byte
}

func newSSEWriter(w io.Writer) *sseWriter { return &sseWriter{w: w} }

// add appends ev's frame to the buffer. The payload is what json.Marshal
// writes for ev.
func (s *sseWriter) add(ev dispatch.Event) error {
	// Event payloads are single-line JSON, so one data: line suffices.
	// The id is 1-based (Seq+1) to match the cluster router's renumbered
	// streams: clients can assert gapless ids 1,2,3,... against either.
	b := append(s.buf, "id: "...)
	b = strconv.AppendInt(b, ev.Seq+1, 10)
	b = append(b, "\nevent: "...)
	b = append(b, ev.Type...)
	b = append(b, "\ndata: "...)
	b, err := segjson.AppendJSON(b, &ev, "", "")
	if err != nil {
		return err
	}
	s.buf = append(b, "\n\n"...)
	return nil
}

// addQueued adds ev and then every event already waiting in events.
// open is false once events is closed.
func (s *sseWriter) addQueued(ev dispatch.Event, events <-chan dispatch.Event) (open bool, err error) {
	for {
		if err := s.add(ev); err != nil {
			return true, err
		}
		select {
		case next, ok := <-events:
			if !ok {
				return false, nil
			}
			ev = next
		default:
			return true, nil
		}
	}
}

// flush writes the buffered frames.
func (s *sseWriter) flush() error {
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}
