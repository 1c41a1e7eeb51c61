package wire

import "testing"

// BenchmarkEncodeSchedule encodes a served S^F2 reply to a paper-default
// n=100 instance on 16 cores: the encode every solve-cache miss runs.
func BenchmarkEncodeSchedule(b *testing.B) {
	segs, resps := servedReplies(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := EncodeSchedule(&resps[0], segs[0])
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(enc.Body)))
	}
}
