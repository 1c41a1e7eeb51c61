package task

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJSONDecode feeds arbitrary bytes to the task-set decoder: it must
// either reject them or produce a set that round-trips and validates —
// and never panic. Its unknown-field check must agree with a strict
// json.Decoder: a set it accepts, that decoder accepts too.
func FuzzJSONDecode(f *testing.F) {
	f.Add([]byte(`[{"release":0,"work":4,"deadline":12}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"release":5,"work":1,"deadline":2}]`))
	f.Add([]byte(`{"not":"array"}`))
	f.Add([]byte(`[{"release":0,"work":1e308,"deadline":1e309}]`))
	f.Add([]byte(`[{"release":-1,"work":0.5,"deadline":-0.5}]`))
	f.Add([]byte(`[{"release":0,"work":1,"deadline":4,"bogus":1}]`))
	f.Add([]byte(`[{"Release":0,"w\u006frk":1,"deadline":4}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Set
		if err := s.UnmarshalJSON(data); err != nil {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(new([]jsonTask)); err != nil {
			t.Fatalf("accepted what a strict decoder rejects: %v", err)
		}
		// Accepted sets must be valid and round-trip losslessly.
		if err := s.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid set: %v", err)
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(s) {
			t.Fatalf("round trip lost tasks: %d vs %d", len(back), len(s))
		}
		for i := range s {
			if back[i] != s[i] {
				t.Fatalf("round trip changed task %d: %v vs %v", i, back[i], s[i])
			}
		}
	})
}
