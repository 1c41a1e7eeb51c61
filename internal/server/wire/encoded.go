package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/freelist"
	"repro/internal/schedule"
	"repro/internal/segjson"
)

// EncodedSchedule is a ScheduleResponse encoded once and served many
// times. Body is encoded with cached=false and elapsed_ms=0; Parts
// splices each reply's own values over those two literals, so a reply
// is byte-identical to encoding/json's output for the equivalent struct
// without encoding the segments again.
type EncodedSchedule struct {
	Body []byte
	// cachedAt and elapsedAt are the offsets in Body of the `false`
	// after "cached": and the `0` after "elapsed_ms":.
	cachedAt, elapsedAt int
}

const (
	cachedField  = `"cached":`
	elapsedField = `"elapsed_ms":`
	// frameMid is what encoding/json writes for the three adjacent
	// fields of ScheduleResponse that EncodeSchedule fills in itself.
	// The segment array replaces the null that follows frameHead.
	frameHead = cachedField + `false,"segments":`
	frameMid  = frameHead + `null,` + elapsedField + `0`
)

// EncodeSchedule encodes r, with Cached and ElapsedMS zeroed and segs in
// place of r.Segments (which is not read), into an EncodedSchedule. The
// body equals encoding/json's output for r with Segments set to the
// SegmentJSON form of segs: a nil segs encodes as null, an empty one as
// []. It fails only where encoding/json does, on a non-finite float.
//
// Every field but the segment array goes through encoding/json, which
// owns string escaping. The array, almost all of the body, is appended
// directly (see segjson.Keys.Splice), and the body is allocated once.
func EncodeSchedule(r *ScheduleResponse, segs []schedule.Segment) (*EncodedSchedule, error) {
	v := *r
	v.Cached, v.Segments, v.ElapsedMS = false, nil, 0
	frame, err := json.Marshal(&v)
	if err != nil {
		return nil, err
	}
	// The field order of ScheduleResponse is the format: "cached",
	// "segments" and "elapsed_ms" are adjacent, in that order. Every
	// quote inside a JSON string is escaped, so the first match is the
	// top-level run of fields.
	at, err := index(frame, frameMid)
	if err != nil {
		return nil, err
	}
	// The head is clipped, so that the body is a new buffer of exactly
	// its size rather than an overwrite of the tail that follows it.
	head, tail := slices.Clip(frame[:at+len(frameHead)]), frame[at+len(frameHead+"null"):]
	body, err := segjson.Wire.Splice(head, segs, tail)
	if err != nil {
		return nil, err
	}
	c := at + len(cachedField)
	e := len(body) - len(tail) + len(`,`+elapsedField)
	return &EncodedSchedule{Body: body, cachedAt: c, elapsedAt: e}, nil
}

// Parts returns the reply body with cached and elapsedMS spliced in, as
// slices to be written in order. They alias Body, so neither side may be
// modified afterwards. elapsedMS is formatted by encoding/json, which
// also rejects a non-finite value.
func (e *EncodedSchedule) Parts(cached bool, elapsedMS float64) (net.Buffers, error) {
	ms, err := json.Marshal(elapsedMS)
	if err != nil {
		return nil, err
	}
	lit := []byte("false")
	if cached {
		lit = []byte("true")
	}
	return net.Buffers{
		e.Body[:e.cachedAt], lit,
		e.Body[e.cachedAt+len("false") : e.elapsedAt], ms,
		e.Body[e.elapsedAt+len("0"):],
	}, nil
}

// Splice is a segment array that WriteSpliced writes in place of the
// null encoding/json writes for a nil slice field of the reply.
type Splice struct {
	// Key is the field's JSON key. The first "key":null after the
	// splice before it is the one replaced, so the key must not occur
	// in a value ahead of it.
	Key  string
	Keys *segjson.Keys
	// Segs is written as AppendArray writes it: null when nil.
	Segs []schedule.Segment
}

// newline ends a reply body, as json.Encoder ends each value.
var newline = []byte("\n")

// frames holds idle buffers for WriteSpliced's encoding/json output,
// which it keeps until the reply is written: a snapshot's task table,
// most of its frame, grows with the session.
var frames = freelist.New[[]byte]()

// WriteSpliced writes a reply with the given status: byte for byte
// what json.NewEncoder(w).Encode(v) writes for v with each splice's
// segments in its field, trailing newline included. v holds those
// fields nil; encoding/json writes every other field. Every array is
// measured before anything is written, so the reply carries a
// Content-Length, and then streamed in pieces through one small buffer,
// so it is never held whole. On an error (a non-finite value, or a v
// without a splice's field) nothing is written and the caller answers
// instead; an error writing to w is dropped, as WriteJSON drops it.
func WriteSpliced(w http.ResponseWriter, status int, v any, splices ...Splice) error {
	buf := frames.Get()
	if buf == nil {
		buf = new([]byte)
	}
	defer frames.Put(buf)
	frame, err := segjson.AppendJSON((*buf)[:0], v, "", "")
	if err != nil {
		return err
	}
	*buf = frame
	// cut[i] is where splice i's null starts in frame.
	cut := make([]int, len(splices))
	c := segjson.TakeCache()
	defer segjson.PutCache(c)
	size, from := len(frame)+len(newline), 0
	for i, sp := range splices {
		key := `"` + sp.Key + `":`
		at, err := index(frame[from:], key+"null")
		if err != nil {
			return err
		}
		cut[i] = from + at + len(key)
		from = cut[i] + len("null")
		n, err := sp.Keys.ArrayLen(sp.Segs, c)
		if err != nil {
			return err
		}
		size += n - len("null")
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(status)
	// A failed write means the client is gone: there is no one left to
	// answer, so the rest is not written.
	from = 0
	for i, sp := range splices {
		if _, err := w.Write(frame[from:cut[i]]); err != nil {
			return nil
		}
		if err := sp.Keys.WriteArray(w, sp.Segs, c); err != nil {
			return nil
		}
		from = cut[i] + len("null")
	}
	_, _ = w.Write(frame[from:])
	_, _ = w.Write(newline)
	return nil
}

// EncodedBatchItem is one item for EncodeBatch: the spliced Parts of
// a successful response, or, when Response is nil, the error item Err.
type EncodedBatchItem struct {
	Response net.Buffers
	Err      BatchItem
}

// EncodeBatch assembles the BatchResponse body for items, in order, so
// that item i carries index i. Each successful item embeds its
// response parts as they are; the envelope and the error items go
// through encoding/json. The result equals encoding/json's output for
// the equivalent BatchResponse.
func EncodeBatch(items []EncodedBatchItem, elapsedMS float64) (net.Buffers, error) {
	env, err := json.Marshal(BatchResponse{Version: Version, Items: []BatchItem{}, ElapsedMS: elapsedMS})
	if err != nil {
		return nil, err
	}
	at, err := index(env, `"items":[]`)
	if err != nil {
		return nil, err
	}
	at += len(`"items":[`)
	out := net.Buffers{env[:at]}
	for i, it := range items {
		if i > 0 {
			out = append(out, []byte(","))
		}
		if it.Response == nil {
			it.Err.Index = i
			b, err := json.Marshal(it.Err)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
			continue
		}
		head := strconv.AppendInt([]byte(`{"index":`), int64(i), 10)
		out = append(out, append(head, `,"response":`...))
		out = append(out, it.Response...)
		out = append(out, []byte("}"))
	}
	return append(out, env[at:]), nil
}

// index returns the offset of the first lit in body, an encoding/json
// output the caller splices at lit; a body without it is an error, not
// a splice at a wrong offset.
func index(body []byte, lit string) (int, error) {
	at := bytes.Index(body, []byte(lit))
	if at < 0 {
		return 0, fmt.Errorf("wire: encoded body has no %s", lit)
	}
	return at, nil
}
