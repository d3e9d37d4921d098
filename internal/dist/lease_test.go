package dist

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for deterministic expiry.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func refs(arch string, n int) []ShardRef {
	out := make([]ShardRef, n)
	for i := range out {
		out[i] = ShardRef{Arch: arch, Shard: i}
	}
	return out
}

func result(jobID string, ref ShardRef) *ShardResult {
	return &ShardResult{JobID: jobID, Ref: ref, Tp: []float64{1}, Status: []int{0}}
}

func TestManagerLeaseAndComplete(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(ManagerConfig{Now: clk.Now, ShardsPerLease: 2, LeaseTTL: time.Minute})
	var mu sync.Mutex
	var sunk []ShardRef
	done, err := m.AddJob(JobSpec{ID: "job1", Fingerprint: "fp"}, refs("hsw", 3), func(res *ShardResult) error {
		mu.Lock()
		defer mu.Unlock()
		sunk = append(sunk, res.Ref)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	l1, err := m.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(l1.Shards) != 2 || l1.Fingerprint != "fp" || l1.JobID != "job1" {
		t.Fatalf("lease 1: %+v", l1)
	}
	if got, want := l1.Deadline, clk.Now().Add(time.Minute); !got.Equal(want) {
		t.Fatalf("deadline %v, want %v", got, want)
	}
	l2, err := m.Lease("w2")
	if err != nil || len(l2.Shards) != 1 {
		t.Fatalf("lease 2: %+v, %v", l2, err)
	}
	if _, err := m.Lease("w3"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("want ErrNoWork, got %v", err)
	}

	for _, ref := range l1.Shards {
		ack, err := m.Complete(result("job1", ref))
		if err != nil || !ack.Accepted {
			t.Fatalf("complete %v: %+v, %v", ref, ack, err)
		}
		if ack.JobDone {
			t.Fatal("job done too early")
		}
	}
	ack, err := m.Complete(result("job1", l2.Shards[0]))
	if err != nil || !ack.Accepted || !ack.JobDone {
		t.Fatalf("final complete: %+v, %v", ack, err)
	}
	select {
	case <-done:
	default:
		t.Fatal("done channel not closed")
	}
	if err := m.Err("job1"); err != nil {
		t.Fatalf("job err: %v", err)
	}
	if len(sunk) != 3 {
		t.Fatalf("sink saw %d shards", len(sunk))
	}
	// The job is gone: further results are rejected as unknown.
	if _, err := m.Complete(result("job1", ShardRef{Arch: "hsw"})); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("want ErrUnknownJob, got %v", err)
	}
}

func TestManagerExpiryReissuesAndLateResultDropped(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(ManagerConfig{Now: clk.Now, LeaseTTL: time.Minute})
	_, err := m.AddJob(JobSpec{ID: "j", Fingerprint: "fp"}, refs("hsw", 1), func(*ShardResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}

	l1, err := m.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	// Not expired yet: nothing to grant.
	if _, err := m.Lease("w2"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("want ErrNoWork, got %v", err)
	}
	clk.Advance(time.Minute)
	// Expired: the same shard re-issues to the next asker.
	l2, err := m.Lease("w2")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Shards[0] != l1.Shards[0] || l2.ID == l1.ID {
		t.Fatalf("re-issue: %+v after %+v", l2, l1)
	}
	if st := m.Snapshot(); st.Reissued != 1 {
		t.Fatalf("reissued count %d", st.Reissued)
	}

	// The dead worker turns out alive and delivers late — first write
	// wins: accepted (shard wasn't done), and w2's duplicate is dropped.
	ack, err := m.Complete(result("j", l1.Shards[0]))
	if err != nil || !ack.Accepted || !ack.JobDone {
		t.Fatalf("late original result: %+v, %v", ack, err)
	}
}

func TestManagerDuplicateResultDropped(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(ManagerConfig{Now: clk.Now, ShardsPerLease: 2})
	var calls int
	var mu sync.Mutex
	_, err := m.AddJob(JobSpec{ID: "j"}, refs("hsw", 2), func(*ShardResult) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := m.Complete(result("j", l.Shards[0])); err != nil || !ack.Accepted {
		t.Fatalf("first: %+v, %v", ack, err)
	}
	// Same shard again: acknowledged, not accepted, sink not re-invoked.
	ack, err := m.Complete(result("j", l.Shards[0]))
	if err != nil || ack.Accepted {
		t.Fatalf("duplicate: %+v, %v", ack, err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times", calls)
	}
	// A result for a shard that was never part of the job is an error.
	if _, err := m.Complete(result("j", ShardRef{Arch: "hsw", Shard: 99})); err == nil {
		t.Fatal("unknown shard accepted")
	}
}

func TestManagerSaturation(t *testing.T) {
	clk := newFakeClock()
	m := NewManager(ManagerConfig{Now: clk.Now, MaxInflight: 2, LeaseTTL: time.Minute})
	_, err := m.AddJob(JobSpec{ID: "j"}, refs("hsw", 5), func(*ShardResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := m.Lease("w1")
	if _, err := m.Lease("w2"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lease("w3"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("want ErrSaturated, got %v", err)
	}
	// Completing a lease frees a slot.
	if _, err := m.Complete(result("j", l1.Shards[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lease("w3"); err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
	// Expiry also frees slots.
	clk.Advance(2 * time.Minute)
	if _, err := m.Lease("w4"); err != nil {
		t.Fatalf("expiry did not free slots: %v", err)
	}
}

func TestManagerSinkFailureFailsJob(t *testing.T) {
	m := NewManager(ManagerConfig{})
	boom := errors.New("disk full")
	done, err := m.AddJob(JobSpec{ID: "j"}, refs("hsw", 2), func(*ShardResult) error { return boom })
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Complete(result("j", l.Shards[0])); !errors.Is(err, boom) {
		t.Fatalf("want sink error, got %v", err)
	}
	select {
	case <-done:
	default:
		t.Fatal("failed job must close its channel")
	}
	if err := m.Err("j"); !errors.Is(err, boom) {
		t.Fatalf("Err: %v", err)
	}
	if err := m.Err("j"); err != nil {
		t.Fatalf("Err must be consumed: %v", err)
	}
}

func TestManagerRemoveJob(t *testing.T) {
	m := NewManager(ManagerConfig{})
	done, err := m.AddJob(JobSpec{ID: "j"}, refs("hsw", 1), func(*ShardResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	m.RemoveJob("j")
	select {
	case <-done:
	default:
		t.Fatal("withdrawn job must close its channel")
	}
	if err := m.Err("j"); err == nil {
		t.Fatal("withdrawn job must report an error")
	}
	if _, err := m.Complete(result("j", l.Shards[0])); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("want ErrUnknownJob after withdrawal, got %v", err)
	}
	if _, err := m.Spec("j"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("want ErrUnknownJob from Spec, got %v", err)
	}
	m.RemoveJob("j") // idempotent
}

func TestManagerFIFOAcrossJobs(t *testing.T) {
	m := NewManager(ManagerConfig{})
	sink := func(*ShardResult) error { return nil }
	if _, err := m.AddJob(JobSpec{ID: "old"}, refs("hsw", 1), sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddJob(JobSpec{ID: "new"}, refs("hsw", 1), sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddJob(JobSpec{ID: "old"}, refs("hsw", 1), sink); err == nil {
		t.Fatal("duplicate job id accepted")
	}
	l, err := m.Lease("w")
	if err != nil {
		t.Fatal(err)
	}
	if l.JobID != "old" {
		t.Fatalf("oldest job must drain first, got %s", l.JobID)
	}
}

// TestManagerConcurrentWorkers hammers one manager from many goroutines
// under -race: concurrent leasing, completing, and expiring must keep the
// bookkeeping consistent and sink every shard exactly once.
func TestManagerConcurrentWorkers(t *testing.T) {
	m := NewManager(ManagerConfig{LeaseTTL: 50 * time.Millisecond, MaxInflight: 8, ShardsPerLease: 3})
	const shards = 60
	var mu sync.Mutex
	seen := map[ShardRef]int{}
	done, err := m.AddJob(JobSpec{ID: "j", Fingerprint: "fp"}, refs("hsw", shards), func(res *ShardResult) error {
		mu.Lock()
		defer mu.Unlock()
		seen[res.Ref]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			slow := id == 0 // one worker leases and sits on it, forcing expiry+re-issue
			for {
				select {
				case <-done:
					return
				default:
				}
				l, err := m.Lease(fmt.Sprintf("w%d", id))
				if err != nil {
					time.Sleep(time.Millisecond)
					continue
				}
				if slow {
					time.Sleep(60 * time.Millisecond)
					slow = false // then behave, so the test terminates
				}
				for _, ref := range l.Shards {
					if _, err := m.Complete(result("j", ref)); err != nil && !errors.Is(err, ErrUnknownJob) {
						t.Errorf("complete: %v", err)
						return
					}
				}
			}
		}(i)
	}

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fill did not converge")
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != shards {
		t.Fatalf("sank %d distinct shards, want %d", len(seen), shards)
	}
}
