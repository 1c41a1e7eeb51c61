package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strconv"

	"repro/internal/schedule"
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
// directly, formatting each distinct float once (see segEncoder).
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
	head, tail := frame[:at+len(frameHead)], frame[at+len(frameHead+"null"):]

	se := segEncoders.Get().(*segEncoder)
	defer se.release(len(segs))
	n, err := se.measure(segs)
	if err != nil {
		return nil, err
	}
	body := make([]byte, 0, len(head)+n+len(tail))
	body = append(body, head...)
	body = se.appendArray(body, segs)
	body = append(body, tail...)
	c := at + len(cachedField)
	e := len(head) + n + len(`,`+elapsedField)
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
