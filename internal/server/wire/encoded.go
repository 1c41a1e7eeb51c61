package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
)

// EncodedSchedule is a ScheduleResponse marshalled once by encoding/json
// and served many times. Body is encoded with cached=false and
// elapsed_ms=0; Parts splices each reply's own values over those two
// literals, so a reply is byte-identical to encoding/json's output for
// the equivalent struct without encoding the segments again.
type EncodedSchedule struct {
	Body []byte
	// cachedAt and elapsedAt are the offsets in Body of the `false`
	// after "cached": and the `0` after "elapsed_ms":.
	cachedAt, elapsedAt int
}

const (
	cachedField  = `"cached":`
	elapsedField = `"elapsed_ms":`
)

// EncodeSchedule marshals r (with Cached and ElapsedMS zeroed) into an
// EncodedSchedule. It fails only where encoding/json does, on a
// non-finite float.
func EncodeSchedule(r *ScheduleResponse) (*EncodedSchedule, error) {
	v := *r
	v.Cached, v.ElapsedMS = false, 0
	body, err := json.Marshal(&v)
	if err != nil {
		return nil, err
	}
	// The field order of ScheduleResponse is the format: "cached" comes
	// before "segments" and "elapsed_ms" right after it. Every quote
	// inside a JSON string is escaped and a segment has neither key, so
	// the first match of each is the top-level field.
	c := bytes.Index(body, []byte(cachedField+"false,"))
	if c < 0 {
		return nil, fmt.Errorf("wire: encoded schedule has no %s field", cachedField)
	}
	c += len(cachedField)
	e := bytes.Index(body[c:], []byte(elapsedField+"0"))
	if e < 0 {
		return nil, fmt.Errorf("wire: encoded schedule has no %s field", elapsedField)
	}
	e += c + len(elapsedField)
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
	at := bytes.Index(env, []byte(`"items":[]`)) + len(`"items":[`)
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
