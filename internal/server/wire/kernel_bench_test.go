package wire

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/schedule"
	"repro/internal/segjson"
	"repro/internal/task"
)

// BenchmarkDecodeRequest decodes an S^F2 request for a paper-default
// n=100 instance on 16 cores (about 8.6 KB): the decode every
// solve-cache miss runs.
func BenchmarkDecodeRequest(b *testing.B) {
	ts, err := task.Generate(rand.New(rand.NewSource(19)), task.PaperDefaults(100))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(ScheduleRequest{Algorithm: "S^F2", Cores: 16, Model: ModelJSON{Alpha: 3, P0: 0.05}, Tasks: ts})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req ScheduleRequest
		if err := Decode(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeSchedule encodes served S^F2 replies to paper-default
// n=100 instances on 16 cores: the encode every solve-cache miss runs.
// It rotates over 8 distinct replies, as a server's misses are, so that
// no cache carried from one encode to the next reads warmer than it
// would in service.
func BenchmarkEncodeSchedule(b *testing.B) {
	segs, resps := servedReplies(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(segs)
		enc, err := EncodeSchedule(&resps[k], segs[k])
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(enc.Body)))
	}
}

// BenchmarkWriteSessionFinal writes a DELETE reply whose realized
// schedule is two served S^F2 replies laid end to end in time, about
// the 10 000 segments a 200-batch session commits, to a writer that
// drops it, as a connection does. A session ends once in hundreds of
// arrivals, with collections between, so each write starts after two
// collections, untimed.
func BenchmarkWriteSessionFinal(b *testing.B) {
	parts, _ := servedReplies(b, 2)
	var segs []schedule.Segment
	for k, part := range parts {
		shift := 1000 * float64(k)
		for _, seg := range part {
			seg.Start, seg.End = seg.Start+shift, seg.End+shift
			segs = append(segs, seg)
		}
	}
	resp := SessionFinalResponse{Version: Version, ID: "bench", Algorithm: "ReplanDER", Cores: 16}
	w := &discard{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.GC()
		w.n = 0
		b.StartTimer()
		if err := WriteSpliced(w, http.StatusOK, &resp, Splice{Key: "segments", Keys: segjson.Wire, Segs: segs}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(w.n))
	}
}

// discard is a ResponseWriter that counts the body and drops it.
type discard struct {
	header http.Header
	n      int
}

func (w *discard) Header() http.Header { return w.header }
func (w *discard) WriteHeader(int)     {}
func (w *discard) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
