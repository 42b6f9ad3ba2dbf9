package engine

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/solver"
)

// FuzzReadSnapshot feeds arbitrary bytes to ReadSnapshot — the snapshot
// file is read at startup from a path an operator chose, so it is a
// trust boundary. Whatever the bytes, ReadSnapshot must not panic, and
// it must either fail leaving the cache size unchanged or restore
// entries without growing the cache past its capacity.
func FuzzReadSnapshot(f *testing.F) {
	src := New(1)
	src.solver = solver.New()
	var runs atomic.Int64
	for _, key := range []string{"job-a", "job-b", "job-c"} {
		if _, err := src.Run(context.Background(), countingJob{key: key, value: 0.5, runs: &runs}); err != nil {
			f.Fatal(err)
		}
	}
	if _, _, err := src.solver.PFaultyBase(0.25); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	warm := buf.Bytes()
	f.Add(warm)
	for _, n := range []int{0, 1, len(warm) / 3, len(warm) / 2, len(warm) - 2} {
		f.Add(warm[:n])
	}
	f.Add(bytes.Replace(warm, []byte(SnapshotSchema), []byte("boundsd-snapshot/v1"), 1))
	f.Add(bytes.Replace(warm, []byte(`"value":0.5`), []byte(`"value":"x"`), 1))
	f.Add([]byte(`{"schema":"` + SnapshotSchema + `","entries":[{"key":""},{"key":"k","result":{"evals":[{}]}}],"solver":{"bases":[{"p":2,"base":-1,"worst":1e309}]}}`))
	f.Add([]byte(`{"schema":"` + SnapshotSchema + `","entries":null,"solver":null}`))
	f.Add([]byte("\x00\xff{[\"garbage"))

	const capacity = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewWithCache(1, capacity)
		e.solver = solver.New()
		var runs atomic.Int64
		if _, err := e.Run(context.Background(), countingJob{key: "resident", value: 1, runs: &runs}); err != nil {
			t.Fatal(err)
		}
		before := e.Stats().Size
		st, err := e.ReadSnapshot(bytes.NewReader(data))
		size := e.Stats().Size
		if err != nil {
			if size != before {
				t.Fatalf("failed restore (%v) changed the cache size %d -> %d", err, before, size)
			}
			return
		}
		if size > capacity {
			t.Fatalf("restore grew the cache to %d entries, capacity %d", size, capacity)
		}
		if size > before+st.Entries {
			t.Fatalf("cache size %d exceeds %d resident + %d restored", size, before, st.Entries)
		}
	})
}
