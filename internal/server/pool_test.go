package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestGateAdmissionAndOverload(t *testing.T) {
	g := newGate(1, 0) // one worker, no waiting allowed
	ctx := context.Background()

	if err := g.acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if len(g.slots) != 1 {
		t.Fatalf("active %d, want 1", len(g.slots))
	}
	if err := g.acquire(ctx); !errors.Is(err, errOverload) {
		t.Fatalf("second acquire = %v, want errOverload", err)
	}
	g.release()
	if err := g.acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g.release()
}

func TestGateQueuedWaiterGetsSlot(t *testing.T) {
	g := newGate(1, 1)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- g.acquire(context.Background()) }()

	// Wait until the waiter is actually queued, then release the slot.
	for i := 0; g.depth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if g.depth() != 1 {
		t.Fatalf("depth %d, want 1", g.depth())
	}
	g.release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued waiter: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter never got the slot")
	}
	if g.depth() != 0 {
		t.Fatalf("depth %d after hand-off, want 0", g.depth())
	}
	g.release()
}

func TestGateCanceledWhileQueued(t *testing.T) {
	g := newGate(1, 4)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- g.acquire(ctx) }()
	for i := 0; g.depth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued acquire = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter never returned")
	}
	g.release()
}
