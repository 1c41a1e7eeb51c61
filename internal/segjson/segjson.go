// Package segjson appends schedule segments as JSON exactly as
// encoding/json writes them, without reflection, and splices them into
// the encoding/json output of the value around them.
//
// Segments are almost all of a served schedule and of a journaled
// session's committed prefix, and formatting their floats is almost all
// of their cost. The wire replies (lower-case keys, wire.SegmentJSON)
// and the journal records (schedule.Segment's own field names) share
// this one appender over a reused FloatCache: Keys.Splice into a body
// built whole, or Keys.WriteArray streamed in pieces after ArrayLen
// has measured it (wire.WriteSpliced's session replies). Keys selects
// the field names.
package segjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync"

	"repro/internal/freelist"
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

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// FloatCache remembers the encodings of recently formatted floats in a
// direct-mapped table. Splice needs every float of an array twice, once
// to measure the array and once to write it, and a schedule repeats its
// floats close together (a boundary ends one segment and starts the
// next, a task keeps its frequency): the table catches most repeats
// without a memo of every distinct value. Each slot is checked against
// its float's bits, so a cache serves array after array without a
// reset; Splice takes an idle one. Each array uses a part of the
// table sized to it, so a short one neither allocates nor touches a
// large table. The zero value is ready to use.
type FloatCache struct {
	shift uint // 64 − log2 of the slots the current array uses
	bits  []uint64
	size  []uint8 // 0 for an empty slot: no float encodes empty
	text  [][maxFloatJSON]byte
	// piece is the buffer WriteArray builds its pieces in.
	piece []byte
}

const (
	// cacheBits bounds the table, 16384 slots (557 KB), by measurement:
	// a served S^F2 reply (n=100, m=16: about 6 000 segments, 2 000 to
	// 3 000 distinct floats) encodes 2–8% faster through it than
	// through 8192 slots, and about 18% faster than through 4096. A
	// shorter array uses about two slots per segment (at least 64, 2 KB
	// of table), as that reply does, so that a journal commit of a few
	// dozen segments neither allocates nor zeroes a table that size.
	cacheBits    = 14
	minCacheBits = 6
	// maxFloatJSON bounds appendFloat's output: a sign, "0.", five
	// zeros and 17 digits below 1, or a sign, 17 digits, "e-" and a
	// three-digit exponent in exponent form.
	maxFloatJSON = 25
	// slotHash spreads a float's bits over the slots (Fibonacci hashing).
	slotHash = 0x9e3779b97f4a7c15
)

// caches holds idle FloatCaches. Unlike a sync.Pool, which drops what
// it holds across two collections, it keeps them: a session journals
// its longest array, a checkpoint of its whole committed prefix, once
// in hundreds of commits and many collections, and would grow a new
// table for each.
var caches = freelist.New[FloatCache]()

// TakeCache returns an idle FloatCache, or a new one. Give it back with
// PutCache once the arrays it measured are written.
func TakeCache() *FloatCache {
	if c := caches.Get(); c != nil {
		return c
	}
	return new(FloatCache)
}

// PutCache gives c back to the idle caches. The caller must not use it
// afterwards.
func PutCache(c *FloatCache) { caches.Put(c) }

// fit readies c for an array of n segments: the array uses the first
// 1<<b slots of the table, b = tableBits(n), which grows to them if it
// is shorter. A longer table keeps its other slots for a longer array.
func (c *FloatCache) fit(n int) {
	b := tableBits(n)
	if len(c.bits) < 1<<b {
		c.bits = make([]uint64, 1<<b)
		c.size = make([]uint8, 1<<b)
		c.text = make([][maxFloatJSON]byte, 1<<b)
	}
	c.shift = uint(64 - b)
}

// tableBits returns the log2 of the slot count for an array of n
// segments.
func tableBits(n int) int {
	return min(max(bits.Len(uint(2*n)), minCacheBits), cacheBits)
}

// Splice appends segs as an array, null for nil segs as encoding/json
// writes a nil slice, and then tail, the encoding of what follows the
// array. It measures the array first, so b grows at most once, to
// exactly its final size. It fails, as encoding/json does, on a NaN or
// infinite value, and then returns b unchanged.
func (k *Keys) Splice(b []byte, segs []schedule.Segment, tail []byte) ([]byte, error) {
	c := TakeCache()
	defer PutCache(c)
	n, err := k.ArrayLen(segs, c)
	if err != nil {
		return b, err
	}
	if size := len(b) + n + len(tail); size > cap(b) {
		b = append(make([]byte, 0, size), b...)
	}
	b = k.AppendArray(b, segs, c)
	return append(b, tail...), nil
}

// encode returns f's encoding from the table, formatting it on a miss.
// f must be finite, and c must have a table.
func (c *FloatCache) encode(f float64) []byte {
	bits := math.Float64bits(f)
	i := (bits * slotHash) >> (c.shift & 63)
	// The three tables have one length: checked once, for bits.
	n := len(c.bits)
	size, text := c.size[:n], c.text[:n]
	if c.bits[i] != bits || size[i] == 0 {
		c.fill(i, f)
	}
	return text[i][:size[i]]
}

// fill formats f into slot i. Out of line, it leaves encode's hit path
// short.
func (c *FloatCache) fill(i uint64, f float64) {
	c.bits[i] = math.Float64bits(f)
	c.size[i] = uint8(len(appendFloat(c.text[i][:0], f)))
}

// ArrayLen returns the length of segs encoded as an array by
// AppendArray, null for nil segs. It fails, as encoding/json does, on a
// NaN or infinite value.
func (k *Keys) ArrayLen(segs []schedule.Segment, c *FloatCache) (int, error) {
	if segs == nil {
		return len("null"), nil
	}
	c.fit(len(segs))
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
	c.fit(len(segs))
	b = k.appendObjects(append(b, '['), segs, c)
	return append(b, ']')
}

const (
	// pieceBytes is the size of the buffer WriteArray writes through: a
	// few dozen writes for the 10 000 segments a long session commits.
	pieceBytes = 32 << 10
	// maxObject bounds one object and the comma before it.
	maxObject = len(",") + fixed + 2*len("-9223372036854775808") + 3*maxFloatJSON
)

// WriteArray writes segs to w, byte for byte as AppendArray appends
// them, in pieces built in one buffer that c keeps, so that an array is
// never held whole. Call it on segs that ArrayLen accepted.
func (k *Keys) WriteArray(w io.Writer, segs []schedule.Segment, c *FloatCache) error {
	if segs == nil {
		_, err := io.WriteString(w, "null")
		return err
	}
	if c.piece == nil {
		c.piece = make([]byte, 0, pieceBytes)
	}
	per := max(1, cap(c.piece)/maxObject) // segments per piece
	c.fit(len(segs))
	b := append(c.piece[:0], '[')
	for {
		n := min(per, len(segs))
		b = k.appendObjects(b, segs[:n], c)
		if segs = segs[n:]; len(segs) == 0 {
			break
		}
		if _, err := w.Write(append(b, ',')); err != nil {
			return err
		}
		b = b[:0]
	}
	_, err := w.Write(append(b, ']'))
	return err
}

// appendObjects appends segs as comma-separated objects. c must be fit
// to the array they belong to.
func (k *Keys) appendObjects(b []byte, segs []schedule.Segment, c *FloatCache) []byte {
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
	return b
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
