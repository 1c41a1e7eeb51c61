package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/dispatch"
)

// The SSE writer's frames are byte for byte the text/event-stream
// framing of json.Marshal's payload, however many events one write
// carries, and a payload that does not encode leaves the frames before
// it intact.
func TestSSEWriterFrames(t *testing.T) {
	events := []dispatch.Event{
		{Seq: 0, Type: dispatch.EventReplan, Clock: 1.5, Task: -1, Count: 2, Replans: 1, LatencyMS: 0.25},
		{Seq: 1, Type: dispatch.EventComplete, Clock: 3, Task: 7, Completed: 2.75},
		{Seq: 2, Type: dispatch.EventError, Task: -1, Reason: `solve <failed> & "quoted"  `},
		{Seq: 41, Type: dispatch.EventFinal, Clock: 1e21, Energy: 1e-7, Ratio: 1.0000000000000002},
	}
	var want bytes.Buffer
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq+1, ev.Type, data)
	}

	ch := make(chan dispatch.Event, len(events))
	for _, ev := range events[1:] {
		ch <- ev
	}
	var got bytes.Buffer
	enc := newSSEWriter(&got)
	open, err := enc.addQueued(events[0], ch)
	if !open || err != nil {
		t.Fatalf("addQueued: open %t, %v", open, err)
	}
	if got.Len() != 0 {
		t.Fatal("addQueued wrote before flush")
	}
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("frames differ:\ngot  %q\nwant %q", got.Bytes(), want.Bytes())
	}

	// A closed channel ends the batch; the buffer is reused.
	close(ch)
	got.Reset()
	if open, err := enc.addQueued(events[0], ch); open || err != nil {
		t.Fatalf("addQueued on a closed channel: open %t, %v", open, err)
	}
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
	if n := len("id: 1\nevent: replan\ndata: \n\n"); !bytes.Equal(got.Bytes(), want.Bytes()[:got.Len()]) || got.Len() <= n {
		t.Fatalf("frame after reuse: %q", got.Bytes())
	}

	// A non-finite payload fails, as json.Marshal does, and keeps the
	// frames added before it.
	got.Reset()
	ch = make(chan dispatch.Event, 1)
	ch <- dispatch.Event{Seq: 5, Type: dispatch.EventCommit, Energy: math.NaN()}
	if _, err := enc.addQueued(events[1], ch); err == nil {
		t.Fatal("a NaN payload encoded")
	}
	if err := enc.flush(); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(events[1])
	if w := fmt.Sprintf("id: 2\nevent: complete\ndata: %s\n\n", data); got.String() != w {
		t.Fatalf("after a failed payload: %q, want %q", got.String(), w)
	}
}
