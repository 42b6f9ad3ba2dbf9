package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/solver"
)

// TestEvictionOrderGlobalAtCapacity pins that the LRU order is exactly
// global at a capacity well past any small-cache special case: with
// 128 results cached and touched in a shuffled order, each overflowing
// insert evicts exactly the least recently touched key and nothing
// else. The snapshot restore path inserts through the same storeLocked,
// so the order is load-bearing beyond steady-state serving.
func TestEvictionOrderGlobalAtCapacity(t *testing.T) {
	const capacity = 128
	e := NewWithCache(2, capacity)
	e.solver = solver.New()
	var runs atomic.Int64
	run := func(key string) {
		t.Helper()
		if _, err := e.Run(context.Background(), countingJob{key: key, value: 1, runs: &runs}); err != nil {
			t.Fatalf("Run(%s): %v", key, err)
		}
	}
	for i := 0; i < capacity; i++ {
		run(fmt.Sprintf("key-%03d", i))
	}
	if ev := e.Stats().Evictions; ev != 0 {
		t.Fatalf("filling to capacity evicted %d entries, want 0", ev)
	}
	// Touch every key in a shuffled order: touched[0] becomes the least
	// recently used, touched[1] the next, and so on.
	touched := rand.New(rand.NewSource(1)).Perm(capacity)
	for _, i := range touched {
		run(fmt.Sprintf("key-%03d", i))
	}
	resident := make(map[string]bool, capacity)
	for i := 0; i < capacity; i++ {
		resident[fmt.Sprintf("key-%03d", i)] = true
	}
	for n := 0; n < 3; n++ {
		extra := fmt.Sprintf("extra-%d", n)
		run(extra)
		victim := fmt.Sprintf("key-%03d", touched[n])
		delete(resident, victim)
		resident[extra] = true
		if e.resident(victim) {
			t.Fatalf("insert %d kept the least recently touched %s", capacity+n+1, victim)
		}
		for key := range resident {
			if !e.resident(key) {
				t.Fatalf("insert %d evicted %s instead of only %s", capacity+n+1, key, victim)
			}
		}
		if st := e.Stats(); st.Evictions != int64(n+1) || st.Size != capacity {
			t.Fatalf("after insert %d: evictions %d size %d, want %d and %d",
				capacity+n+1, st.Evictions, st.Size, n+1, capacity)
		}
	}
}

// TestAbandonedFlightFinishingLate pins the split of in-flight work
// from completed results: a non-cooperative flight abandoned by its
// only caller leaves the flight table at once, so the next Run of the
// key starts a fresh flight; when the abandoned computation finishes
// after the fresh one has completed, the key still holds one cache
// entry, counted once in Size, and every later Run is a hit with the
// same value.
func TestAbandonedFlightFinishingLate(t *testing.T) {
	e := New(4)
	e.solver = solver.New()
	var runs atomic.Int64
	stuck := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, gateJob{key: "late", release: stuck, runs: &runs})
		errCh <- err
	}()
	waitFor(t, "the first flight to start", func() bool { return e.Stats().InFlight == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Run returned %v, want context.Canceled", err)
	}
	if e.resident("late") {
		t.Fatal("abandoned flight still resident after its last waiter left")
	}

	open := make(chan struct{})
	close(open)
	fresh, err := e.Run(context.Background(), gateJob{key: "late", release: open, runs: &runs})
	if err != nil {
		t.Fatalf("fresh Run: %v", err)
	}
	close(stuck)
	waitFor(t, "the abandoned flight to finish", func() bool { return e.Stats().InFlight == 0 })

	later, err := e.Run(context.Background(), gateJob{key: "late", release: stuck, runs: &runs})
	if err != nil {
		t.Fatalf("later Run: %v", err)
	}
	if later.Value != fresh.Value {
		t.Errorf("later Run = %+v, fresh Run = %+v, want equal", later, fresh)
	}
	st := e.Stats()
	if st.Size != 1 || st.Misses != 2 || st.Hits != 1 {
		t.Errorf("Stats = %+v, want size 1, 2 misses, 1 hit", st)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("job executed %d times, want 2 (abandoned + fresh)", got)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.flights) != 0 || len(e.cache) != e.lru.Len() {
		t.Errorf("flights %d, cache map %d, lru %d: want 0 flights and map == lru",
			len(e.flights), len(e.cache), e.lru.Len())
	}
}

// The concurrent accounting test hammers a bounded cache from many
// goroutines and checks the Stats invariants the snapshot and
// admission layers read: Size is the true LRU length (the index map
// agrees) and never exceeds Capacity, and Hits+Misses equals the number
// of Runs issued. Run under -race in CI.
func TestStatsShardsAccountingConcurrent(t *testing.T) {
	const (
		capacity   = 64
		goroutines = 16
		perG       = 300
		keySpace   = 200 // > capacity, so eviction churns throughout
	)
	e := NewWithCache(4, capacity)
	e.solver = solver.New()
	var runs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("key-%03d", (g*31+i*7)%keySpace)
				if _, err := e.Run(context.Background(), countingJob{key: key, value: 1, runs: &runs}); err != nil {
					t.Errorf("Run(%s): %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := e.Stats()
	if st.Capacity != capacity {
		t.Fatalf("Stats.Capacity = %d, want %d", st.Capacity, capacity)
	}
	if st.Size > capacity {
		t.Fatalf("Stats.Size = %d exceeds capacity %d", st.Size, capacity)
	}
	e.mu.Lock()
	mapSize, lruSize := len(e.cache), e.lru.Len()
	e.mu.Unlock()
	if mapSize != lruSize {
		t.Fatalf("cache map size %d != lru size %d", mapSize, lruSize)
	}
	if st.Size != lruSize {
		t.Fatalf("Stats.Size = %d, lru size = %d", st.Size, lruSize)
	}
	total := int64(goroutines * perG)
	if st.Hits+st.Misses != total {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d Runs", st.Hits, st.Misses, st.Hits+st.Misses, total)
	}
	if st.Misses < int64(keySpace) {
		t.Fatalf("misses = %d, want at least one per distinct key (%d)", st.Misses, keySpace)
	}
	if st.Evictions == 0 {
		t.Fatal("key space exceeds capacity but no evictions recorded")
	}

	// The restore path and Stats must agree after churn too: snapshot
	// the churned cache and restore it into a fresh engine.
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	dst := NewWithCache(4, capacity)
	dst.solver = solver.New()
	rst, err := dst.ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got := dst.Stats().Size; got != rst.Entries {
		t.Fatalf("restored Stats.Size = %d, restore reported %d entries", got, rst.Entries)
	}
}
