// Package segjson appends schedule segments as JSON exactly as
// encoding/json writes them, without reflection, and splices them into
// the encoding/json output of the value around them.
//
// Segments are almost all of a served schedule and of a journaled
// session's committed prefix, and formatting their floats is almost all
// of their cost. The wire replies (lower-case keys, wire.SegmentJSON)
// and the journal records (schedule.Segment's own field names) share
// this one appender; Keys selects the field names.
package segjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/schedule"
)

// Keys are a segment object's five keys with their separators, as
// encoding/json writes them. Each key has the length of the wire's, so
// every append below copies a fixed-size array, which compiles to a few
// inline moves where a string of unknown length costs a call to memmove.
type Keys struct {
	task, core [len(`{"task":`)]byte
	start      [len(`,"start":`)]byte
	end        [len(`,"end":`)]byte
	freq       [len(`,"frequency":`)]byte
}

// fixed is the length of everything in one object but its values.
const fixed = len(`{"task":,"core":,"start":,"end":,"frequency":}`)

// MaxObject bounds the length of one segment object: everything but
// its values, two integers of at most 20 bytes and three floats.
const MaxObject = fixed + 2*len("-9223372036854775808") + 3*maxFloatJSON

// newKeys returns the keys of an object whose fields, in order, hold a
// segment's task, core, start, end and frequency. Each name has the
// length of the wire's.
func newKeys(task, core, start, end, frequency string) *Keys {
	k := &Keys{}
	set := func(dst []byte, key string) {
		if len(key) != len(dst) {
			panic("segjson: key " + key + " does not have the wire's length")
		}
		copy(dst, key)
	}
	set(k.task[:], `{"`+task+`":`)
	set(k.core[:], `,"`+core+`":`)
	set(k.start[:], `,"`+start+`":`)
	set(k.end[:], `,"`+end+`":`)
	set(k.freq[:], `,"`+frequency+`":`)
	return k
}

var (
	// Wire are the keys of wire.SegmentJSON.
	Wire = newKeys("task", "core", "start", "end", "frequency")
	// Fields are the keys encoding/json gives schedule.Segment, which has
	// no tags: its field names.
	Fields = newKeys("Task", "Core", "Start", "End", "Frequency")
)

// AppendObjects appends segs as comma-separated objects, without the
// brackets of an array, formatting every float. It fails, as
// encoding/json does, on a NaN or infinite value.
func (k *Keys) AppendObjects(b []byte, segs []schedule.Segment) ([]byte, error) {
	for i := range segs {
		s := &segs[i]
		if !finite(s.Start) || !finite(s.End) || !finite(s.Frequency) {
			return b, fmt.Errorf("segjson: segment %d: unsupported value: %v", i, *s)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k.task[:]...)
		b = strconv.AppendInt(b, int64(s.Task), 10)
		b = append(b, k.core[:]...)
		b = strconv.AppendInt(b, int64(s.Core), 10)
		b = append(b, k.start[:]...)
		b = appendFloat(b, s.Start)
		b = append(b, k.end[:]...)
		b = appendFloat(b, s.End)
		b = append(b, k.freq[:]...)
		b = appendFloat(b, s.Frequency)
		b = append(b, '}')
	}
	return b, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// FloatCache remembers the encodings of recently formatted floats in a
// small direct-mapped table. It serves an array that is encoded once,
// such as a session's realized schedule: measured first, so that its
// buffer is allocated at its exact size, and then written. Such an
// array in time order repeats its floats close together (a boundary
// ends one segment and starts the next, a task keeps its frequency), so
// the table catches most repeats in both passes without an Encoder's
// memo of every distinct value, which costs more than the body it
// serves. The zero value is ready to use.
type FloatCache struct {
	bits [cacheSlots]uint64
	size [cacheSlots]uint8 // 0 for an empty slot: no float encodes empty
	text [cacheSlots][maxFloatJSON]byte
}

const (
	cacheBits  = 10
	cacheSlots = 1 << cacheBits
	// maxFloatJSON bounds appendFloat's output: a sign, "0.", five
	// zeros and 17 digits below 1, or a sign, 17 digits, "e-" and a
	// three-digit exponent in exponent form.
	maxFloatJSON = 25
)

// encode returns f's encoding from the table, formatting it on a miss.
// f must be finite.
func (c *FloatCache) encode(f float64) []byte {
	bits := math.Float64bits(f)
	i := (bits * 0x9e3779b97f4a7c15) >> (64 - cacheBits)
	if c.size[i] == 0 || c.bits[i] != bits {
		c.bits[i] = bits
		c.size[i] = uint8(len(appendFloat(c.text[i][:0], f)))
	}
	return c.text[i][:c.size[i]]
}

// ArrayLen returns the length of segs encoded as an array by
// AppendArray, null for nil segs. It fails, as encoding/json does, on a
// NaN or infinite value.
func (k *Keys) ArrayLen(segs []schedule.Segment, c *FloatCache) (int, error) {
	if segs == nil {
		return len("null"), nil
	}
	n := len("[]")
	if len(segs) > 0 {
		n += len(segs)*fixed + len(segs) - 1
	}
	for i := range segs {
		s := &segs[i]
		n += intLen(s.Task) + intLen(s.Core)
		for _, f := range [3]float64{s.Start, s.End, s.Frequency} {
			if !finite(f) {
				return 0, fmt.Errorf("segjson: segment %d: unsupported value: %s", i, strconv.FormatFloat(f, 'g', -1, 64))
			}
			n += len(c.encode(f))
		}
	}
	return n, nil
}

// AppendArray appends segs as an array, null for nil segs as
// encoding/json writes a nil slice. Call it on segs that ArrayLen
// accepted.
func (k *Keys) AppendArray(b []byte, segs []schedule.Segment, c *FloatCache) []byte {
	if segs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range segs {
		if i > 0 {
			b = append(b, ',')
		}
		s := &segs[i]
		b = append(b, k.task[:]...)
		b = strconv.AppendInt(b, int64(s.Task), 10)
		b = append(b, k.core[:]...)
		b = strconv.AppendInt(b, int64(s.Core), 10)
		b = append(b, k.start[:]...)
		b = append(b, c.encode(s.Start)...)
		b = append(b, k.end[:]...)
		b = append(b, c.encode(s.End)...)
		b = append(b, k.freq[:]...)
		b = append(b, c.encode(s.Frequency)...)
		b = append(b, '}')
	}
	return append(b, ']')
}

// Encoder appends a whole segment array, formatting each distinct
// float64 bit pattern once. A served schedule repeats few distinct
// floats: boundaries shared between segments, one frequency per task
// under S^F. So Measure formats each distinct value once into arena and
// resolves every float field to its span there; AppendArray then copies
// spans instead of formatting. Encoders are pooled, so the memo map is
// cleared, not reallocated, per use.
type Encoder struct {
	keys  *Keys
	memo  map[uint64]span
	arena []byte
	// refs holds the spans of every segment's start, end and frequency,
	// in order.
	refs []span
}

type span struct{ off, end uint32 }

var encoders = sync.Pool{New: func() any {
	return &Encoder{memo: make(map[uint64]span)}
}}

// maxPooledSegments keeps the scratch of an outsized array out of the
// pool, so one huge schedule does not pin its memo for good.
const maxPooledSegments = 1 << 16

// NewEncoder returns a pooled Encoder writing objects with keys k.
// Release it after its last AppendArray.
func NewEncoder(k *Keys) *Encoder {
	e := encoders.Get().(*Encoder)
	e.keys = k
	return e
}

// Release resets the scratch and returns it to the pool.
func (e *Encoder) Release() {
	if len(e.refs) > 3*maxPooledSegments {
		return
	}
	clear(e.memo)
	e.keys, e.arena, e.refs = nil, e.arena[:0], e.refs[:0]
	encoders.Put(e)
}

// Measure resolves every float of segs to its formatted span and
// returns the exact length of the encoded array. It fails, as
// encoding/json does, on a NaN or infinite value.
func (e *Encoder) Measure(segs []schedule.Segment) (int, error) {
	e.refs = e.refs[:0]
	if segs == nil {
		return len("null"), nil
	}
	n := len("[]")
	if len(segs) > 0 {
		n += len(segs)*fixed + len(segs) - 1
	}
	e.refs = slices.Grow(e.refs, 3*len(segs))
	for i := range segs {
		s := &segs[i]
		n += intLen(s.Task) + intLen(s.Core)
		for _, f := range [3]float64{s.Start, s.End, s.Frequency} {
			sp, err := e.float(f)
			if err != nil {
				return 0, fmt.Errorf("segjson: segment %d: %w", i, err)
			}
			e.refs = append(e.refs, sp)
			n += int(sp.end - sp.off)
		}
	}
	return n, nil
}

// float returns the span of f's encoding in arena, formatting it on its
// first occurrence.
func (e *Encoder) float(f float64) (span, error) {
	bits := math.Float64bits(f)
	if sp, ok := e.memo[bits]; ok {
		return sp, nil
	}
	if !finite(f) {
		return span{}, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	off := len(e.arena)
	e.arena = appendFloat(e.arena, f)
	sp := span{uint32(off), uint32(len(e.arena))}
	e.memo[bits] = sp
	return sp, nil
}

// AppendArray appends the array measured by the last Measure call: null
// for nil segs, as encoding/json writes a nil slice.
func (e *Encoder) AppendArray(b []byte, segs []schedule.Segment) []byte {
	if segs == nil {
		return append(b, "null"...)
	}
	k := e.keys
	b = append(b, '[')
	refs := e.refs
	for i := range segs {
		if i > 0 {
			b = append(b, ',')
		}
		s := &segs[i]
		b = append(b, k.task[:]...)
		b = strconv.AppendInt(b, int64(s.Task), 10)
		b = append(b, k.core[:]...)
		b = strconv.AppendInt(b, int64(s.Core), 10)
		b = append(b, k.start[:]...)
		b = append(b, e.arena[refs[0].off:refs[0].end]...)
		b = append(b, k.end[:]...)
		b = append(b, e.arena[refs[1].off:refs[1].end]...)
		b = append(b, k.freq[:]...)
		b = append(b, e.arena[refs[2].off:refs[2].end]...)
		b = append(b, '}')
		refs = refs[3:]
	}
	return append(b, ']')
}

// appendFloat appends a finite f as encoding/json writes a float64:
// the shortest representation that round-trips, in exponent form below
// 1e-6 and from 1e21 on, with a two-digit negative exponent shortened
// (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// intLen is the length of v in decimal, sign included.
func intLen(v int) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// AppendJSON appends encoding/json's encoding of v to b with prefix and
// suffix cut off. A splice point is found by encoding the value around
// it with the spliced field nil and the fields after it zero: such an
// encoding ends in a known suffix (`null}` for a field without
// omitempty, `}` for one with it), and the fields after the splice point
// are the encoding of a value holding only them, past the known prefix
// that the zero value's leading fields encode to. An encoding without
// them is an error, never a splice at a wrong offset.
//
// The encoding goes straight into b through a pooled json.Encoder, so
// it is copied once and not allocated apart from b's growth.
func AppendJSON(b []byte, v any, prefix, suffix string) ([]byte, error) {
	je := jsonEncoders.Get().(*jsonEncoder)
	je.buf = b
	err := je.enc.Encode(v)
	out := je.buf
	je.buf = nil
	jsonEncoders.Put(je)
	if err != nil {
		return b, err
	}
	enc := out[len(b) : len(out)-1] // Encode ends with a newline
	if len(enc) < len(prefix)+len(suffix) || !bytes.HasPrefix(enc, []byte(prefix)) || !bytes.HasSuffix(enc, []byte(suffix)) {
		return b, fmt.Errorf("segjson: %T encodes without the prefix %q and suffix %q it is spliced at", v, prefix, suffix)
	}
	n := copy(enc, enc[len(prefix):len(enc)-len(suffix)])
	return out[:len(b)+n], nil
}

// jsonEncoder is a json.Encoder that appends to buf.
type jsonEncoder struct {
	buf []byte
	enc *json.Encoder
}

func (je *jsonEncoder) Write(p []byte) (int, error) {
	je.buf = append(je.buf, p...)
	return len(p), nil
}

var jsonEncoders = sync.Pool{New: func() any {
	je := &jsonEncoder{}
	je.enc = json.NewEncoder(je)
	return je
}}

// ZeroPrefix returns encoding/json's encoding of zero, a struct value
// whose fields are all zero, without its closing brace: the prefix
// AppendJSON cuts off a value of the same type that holds only fields
// after the always-encoded ones.
func ZeroPrefix(zero any) string {
	b, err := json.Marshal(zero)
	if err != nil || len(b) < 2 || b[len(b)-1] != '}' {
		panic(fmt.Sprintf("segjson: %T has no object encoding: %s %v", zero, b, err))
	}
	return string(b[:len(b)-1])
}
