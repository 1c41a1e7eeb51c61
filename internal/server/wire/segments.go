package wire

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/schedule"
)

// segEncoder appends a segment array exactly as encoding/json writes the
// equivalent []SegmentJSON. A served schedule repeats few distinct
// floats: boundaries shared between segments, one frequency per task
// under S^F. So measure formats each distinct float64 bit pattern once
// into arena and resolves every float field to its span there;
// appendArray then copies spans instead of formatting. The scratch is
// pooled, so the memo map is cleared, not reallocated, per reply.
type segEncoder struct {
	memo  map[uint64]span
	arena []byte
	// refs holds the spans of every segment's start, end and frequency,
	// in order.
	refs []span
}

type span struct{ off, end uint32 }

var segEncoders = sync.Pool{New: func() any {
	return &segEncoder{memo: make(map[uint64]span)}
}}

// maxPooledSegments keeps the scratch of an outsized reply out of the
// pool, so one huge schedule does not pin its memo for good.
const maxPooledSegments = 1 << 16

// Segment keys with their separators, as encoding/json writes them.
const (
	segTask  = `{"task":`
	segCore  = `,"core":`
	segStart = `,"start":`
	segEnd   = `,"end":`
	segFreq  = `,"frequency":`
	segClose = `}`
	segFixed = len(segTask + segCore + segStart + segEnd + segFreq + segClose)
)

// release resets the scratch and returns it to the pool.
func (se *segEncoder) release(segs int) {
	if segs > maxPooledSegments {
		return
	}
	clear(se.memo)
	se.arena, se.refs = se.arena[:0], se.refs[:0]
	segEncoders.Put(se)
}

// measure resolves every float of segs to its formatted span and
// returns the exact length of the encoded array. It fails, as
// encoding/json does, on a NaN or infinite value.
func (se *segEncoder) measure(segs []schedule.Segment) (int, error) {
	if segs == nil {
		return len("null"), nil
	}
	n := len("[]")
	if len(segs) > 0 {
		n += len(segs)*segFixed + len(segs) - 1
	}
	se.refs = slices.Grow(se.refs, 3*len(segs))
	for i := range segs {
		s := &segs[i]
		n += intLen(s.Task) + intLen(s.Core)
		for _, f := range [3]float64{s.Start, s.End, s.Frequency} {
			sp, err := se.float(f)
			if err != nil {
				return 0, fmt.Errorf("wire: segment %d: %w", i, err)
			}
			se.refs = append(se.refs, sp)
			n += int(sp.end - sp.off)
		}
	}
	return n, nil
}

// float returns the span of f's encoding in arena, formatting it on its
// first occurrence.
func (se *segEncoder) float(f float64) (span, error) {
	bits := math.Float64bits(f)
	if sp, ok := se.memo[bits]; ok {
		return sp, nil
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return span{}, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	off := len(se.arena)
	se.arena = appendFloat(se.arena, f)
	sp := span{uint32(off), uint32(len(se.arena))}
	se.memo[bits] = sp
	return sp, nil
}

// appendArray appends the array measured by the last measure call.
func (se *segEncoder) appendArray(b []byte, segs []schedule.Segment) []byte {
	if segs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	refs := se.refs
	for i := range segs {
		if i > 0 {
			b = append(b, ',')
		}
		s := &segs[i]
		b = append(b, segTask...)
		b = strconv.AppendInt(b, int64(s.Task), 10)
		b = append(b, segCore...)
		b = strconv.AppendInt(b, int64(s.Core), 10)
		b = append(b, segStart...)
		b = append(b, se.arena[refs[0].off:refs[0].end]...)
		b = append(b, segEnd...)
		b = append(b, se.arena[refs[1].off:refs[1].end]...)
		b = append(b, segFreq...)
		b = append(b, se.arena[refs[2].off:refs[2].end]...)
		b = append(b, segClose...)
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
