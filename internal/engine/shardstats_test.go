package engine

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/solver"
)

// TestEvictionOrderAcrossShards pins that the LRU bound is enforced
// per shard in recency order: with every shard saturated, the evicted
// key is always the least-recently-used key of the *inserted key's*
// shard, never a hotter key from another shard. The snapshot restore
// path depends on this (restoreEntry inserts through the same
// evictLocked), so the order is load-bearing beyond steady-state
// serving.
func TestEvictionOrderAcrossShards(t *testing.T) {
	const shards, perShard = 4, 3
	e := newWithCacheShards(2, shards*perShard, shards)
	e.solver = solver.New()
	var runs atomic.Int64

	// Group keys by the shard they hash to, then fill every shard to
	// exactly its bound.
	byShard := make(map[*cacheShard][]string)
	for i := 0; len(byShard) < shards || anyShort(byShard, perShard); i++ {
		if i > 10000 {
			t.Fatal("could not find enough keys per shard")
		}
		key := fmt.Sprintf("key-%04d", i)
		sh := e.shardFor(key)
		if len(byShard[sh]) < perShard {
			byShard[sh] = append(byShard[sh], key)
		}
	}
	for _, keys := range byShard {
		for _, key := range keys {
			if _, err := e.Run(context.Background(), countingJob{key: key, value: 1, runs: &runs}); err != nil {
				t.Fatalf("Run(%s): %v", key, err)
			}
		}
	}
	if ev := e.Stats().Evictions; ev != 0 {
		t.Fatalf("filling to capacity evicted %d entries, want 0", ev)
	}

	for sh, keys := range byShard {
		// Touch the oldest key so the second-oldest becomes this
		// shard's LRU victim.
		oldest, victim := keys[0], keys[1]
		if _, err := e.Run(context.Background(), countingJob{key: oldest, value: 1, runs: &runs}); err != nil {
			t.Fatalf("touch Run(%s): %v", oldest, err)
		}
		// Insert one more key on the same shard, forcing one eviction.
		extra := extraKeyFor(e, sh, "extra")
		if _, err := e.Run(context.Background(), countingJob{key: extra, value: 1, runs: &runs}); err != nil {
			t.Fatalf("overflow Run(%s): %v", extra, err)
		}
		sh.mu.Lock()
		_, victimResident := sh.cache[victim]
		_, oldestResident := sh.cache[oldest]
		sh.mu.Unlock()
		if victimResident {
			t.Fatalf("shard kept LRU victim %s after overflow", victim)
		}
		if !oldestResident {
			t.Fatalf("shard evicted recently touched %s instead of the LRU victim", oldest)
		}
		// Other shards must be untouched: all their keys still resident.
		for other, otherKeys := range byShard {
			if other == sh {
				continue
			}
			other.mu.Lock()
			for _, key := range otherKeys {
				if _, ok := other.cache[key]; !ok {
					other.mu.Unlock()
					t.Fatalf("eviction on one shard dropped %s from another shard", key)
				}
			}
			other.mu.Unlock()
		}
		// Record this shard's true residents (victim out, extra in) so
		// later iterations' cross-shard checks stay accurate.
		resident := []string{oldest, extra}
		resident = append(resident, keys[2:]...)
		byShard[sh] = resident
	}
}

func anyShort(byShard map[*cacheShard][]string, want int) bool {
	for _, keys := range byShard {
		if len(keys) < want {
			return true
		}
	}
	return false
}

// extraKeyFor finds an unused key hashing onto sh.
func extraKeyFor(e *Engine, sh *cacheShard, prefix string) string {
	for i := 0; ; i++ {
		key := fmt.Sprintf("%s-%04d", prefix, i)
		if e.shardFor(key) != sh {
			continue
		}
		sh.mu.Lock()
		_, resident := sh.cache[key]
		sh.mu.Unlock()
		if !resident {
			return key
		}
	}
}

// TestStatsShardsAccountingConcurrent hammers a sharded, bounded cache
// from many goroutines and checks the Stats invariants the snapshot
// and admission layers read: Shards matches the configured count,
// Size is the true sum over shards and never exceeds Capacity, and
// Hits+Misses equals the number of Runs issued. Run under -race in CI.
func TestStatsShardsAccountingConcurrent(t *testing.T) {
	const (
		shards     = 8
		capacity   = 64
		goroutines = 16
		perG       = 300
		keySpace   = 200 // > capacity, so eviction churns throughout
	)
	e := newWithCacheShards(4, capacity, shards)
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
	if st.Shards != shards {
		t.Fatalf("Stats.Shards = %d, want %d", st.Shards, shards)
	}
	if st.Capacity != capacity {
		t.Fatalf("Stats.Capacity = %d, want %d", st.Capacity, capacity)
	}
	if st.Size > capacity {
		t.Fatalf("Stats.Size = %d exceeds capacity %d", st.Size, capacity)
	}
	sum := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		if len(sh.cache) != sh.lru.Len() {
			sh.mu.Unlock()
			t.Fatalf("shard map size %d != lru size %d", len(sh.cache), sh.lru.Len())
		}
		sum += len(sh.cache)
		sh.mu.Unlock()
	}
	if st.Size != sum {
		t.Fatalf("Stats.Size = %d, true sum over shards = %d", st.Size, sum)
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
	dst := newWithCacheShards(4, capacity, shards)
	dst.solver = solver.New()
	rst, err := dst.ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got := dst.Stats().Size; got != rst.Entries {
		t.Fatalf("restored Stats.Size = %d, restore reported %d entries", got, rst.Entries)
	}
}
