package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuvar/internal/testutil"
)

// TestGroupCoalesces: N concurrent callers share one execution.
func TestGroupCoalesces(t *testing.T) {
	var g Group[int]
	var calls atomic.Int64
	gate := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
				calls.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v; want 42, nil", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Open the gate only once every caller has joined the flight —
	// otherwise late arrivals find the completed (and released) key and
	// start a second execution.
	for g.Waiters("k") < waiters {
		time.Sleep(50 * time.Microsecond)
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers", n, waiters)
	}
	if g.Len() != 0 {
		t.Fatalf("flight not released after completion")
	}
}

// TestGroupCanceledCallerHandsOff is the contract the service's
// coalescing relies on: the flight's creator canceling must not poison
// the followers — the computation continues and they get the result.
func TestGroupCanceledCallerHandsOff(t *testing.T) {
	var g Group[string]
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	computing := make(chan struct{})
	gate := make(chan struct{})
	var calls atomic.Int64

	fn := func(ctx context.Context) (string, error) {
		calls.Add(1)
		close(computing)
		select {
		case <-gate:
			return "complete", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(leaderCtx, "k", fn)
		leaderDone <- err
	}()
	<-computing

	followerDone := make(chan error, 1)
	var followerVal string
	go func() {
		v, shared, err := g.Do(context.Background(), "k", fn)
		followerVal = v
		if !shared {
			t.Error("follower did not join the in-flight execution")
		}
		followerDone <- err
	}()
	// Ensure the follower has joined before killing the leader.
	for g.Len() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	time.Sleep(time.Millisecond)

	cancelLeader()
	select {
	case err := <-leaderDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("leader err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled leader did not return promptly")
	}

	close(gate) // let the computation finish for the follower
	select {
	case err := <-followerDone:
		if err != nil || followerVal != "complete" {
			t.Fatalf("follower got %q, %v; want the completed result", followerVal, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never received the handed-off result")
	}
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1 (handoff, not restart)", calls.Load())
	}
}

// TestGroupLastWaiterCancelsFlight: when every caller abandons the
// flight, its context is canceled and the key is released so the next
// request starts fresh.
func TestGroupLastWaiterCancelsFlight(t *testing.T) {
	leak := testutil.LeakCheck(t, 0)
	var g Group[int]
	ctx, cancel := context.WithCancel(context.Background())
	flightCanceled := make(chan struct{})

	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) (int, error) {
			<-fctx.Done()
			close(flightCanceled)
			return 0, fctx.Err()
		})
		done <- err
	}()
	for g.Len() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-flightCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was not canceled after the last waiter left")
	}
	// The key must be free for a fresh start.
	v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
		return 7, nil
	})
	if err != nil || v != 7 || shared {
		t.Fatalf("fresh Do after abandoned flight = %d, shared=%v, %v; want 7, false, nil", v, shared, err)
	}
	leak()
}

// TestGroupCanceledCallerStartsNothing: a caller whose context has
// already ended gets ctx.Err() and never runs fn, however fast fn is.
func TestGroupCanceledCallerStartsNothing(t *testing.T) {
	var g Group[int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		v, shared, err := g.Do(ctx, "k", func(context.Context) (int, error) {
			t.Error("fn ran for a canceled caller")
			return 7, nil
		})
		if !errors.Is(err, context.Canceled) || v != 0 || shared {
			t.Fatalf("Do on a canceled ctx = %d, shared=%v, %v; want 0, false, context.Canceled", v, shared, err)
		}
	}
	if g.Len() != 0 {
		t.Fatalf("%d flights left in flight", g.Len())
	}
}

// TestGroupErrorPropagatesToAllWaiters: a failed execution hands its
// error to every waiter and releases the key (errors are retryable).
func TestGroupErrorPropagatesToAllWaiters(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	gate := make(chan struct{})
	const waiters = 8
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
				<-gate
				return 0, boom
			})
			errs <- err
		}()
	}
	for g.Len() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	close(gate)
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("waiter err = %v, want boom", err)
		}
	}
	// Retry computes afresh.
	v, _, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("retry after error = %d, %v; want 1, nil", v, err)
	}
}

// TestGroupPanicBecomesError: a panicking flight reports an error, not
// a crashed process.
func TestGroupPanicBecomesError(t *testing.T) {
	var g Group[int]
	_, _, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
		panic("flight exploded")
	})
	if err == nil {
		t.Fatal("want panic-derived error")
	}
	if got := err.Error(); !containsAll(got, "panicked", "flight exploded") {
		t.Fatalf("panic error missing context: %v", got)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestGroupDistinctKeysRunConcurrently: different keys never serialize
// on each other.
func TestGroupDistinctKeysRunConcurrently(t *testing.T) {
	var g Group[int]
	barrier := make(chan struct{})
	var arrived atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := g.Do(context.Background(), string(rune('a'+i)), func(context.Context) (int, error) {
				if arrived.Add(1) == 4 {
					close(barrier) // all four flights in progress at once
				}
				<-barrier
				return i, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("distinct keys serialized (deadlock waiting for all four flights)")
	}
}
