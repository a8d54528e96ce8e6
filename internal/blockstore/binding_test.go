package blockstore

import (
	"runtime"
	"sync"
	"testing"

	"dnastore/internal/binding"
	"dnastore/internal/dna"
	"dnastore/internal/pool"
)

// bindingConfig returns the small test config with the given binding
// cache switch (negative disables it) and worker count.
func bindingConfig(entries, workers int) Config {
	cfg := testConfig()
	cfg.BindingEntries = entries
	cfg.Workers = workers
	return cfg
}

// buildBindingStore writes the seeded data set into a store built with
// the given config.
func buildBindingStore(t testing.TB, cfg Config) (*Store, *Partition) {
	t.Helper()
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 12; b++ {
		content := []byte{byte('a' + b), byte('A' + b), byte('0' + b)}
		if err := p.WriteBlock(b, content); err != nil {
			t.Fatal(err)
		}
	}
	return s, p
}

// evictRows begins reactions over enough fresh one-species pools to
// push every row the cache holds out of it.
func evictRows(c *binding.Cache) {
	seq := dna.MustFromString("ACGTACGTACGTACGTACGTACGT")
	for k := 0; k < 64; k++ {
		pp := pool.New()
		pp.Add(seq, 1, pool.Meta{})
		c.Begin([]binding.Pair{{Fwd: seq, Rev: seq}}, 0, pp)
	}
}

// TestBindingCacheByteIdentity is the differential oracle of the
// binding cache: a store with the shared cache — left warm, or with its
// rows evicted before every pass — produces the same tube digest and
// the same read bytes as a store with the cache disabled, at workers
// 1, 4 and GOMAXPROCS, across every read path, warm and cold.
func TestBindingCacheByteIdentity(t *testing.T) {
	refStore, refPart := buildBindingStore(t, bindingConfig(-1, 1)) // cache disabled
	refDigest := refStore.TubeDigest()
	refRange, err := refPart.ReadRange(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	refBlocks, err := refPart.ReadBlocks([]int{7, 3, 9, 0})
	if err != nil {
		t.Fatal(err)
	}
	refAll, err := refPart.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	for _, evict := range []bool{false, true} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			cfg := bindingConfig(0, workers)
			var shared *binding.Cache
			if evict {
				shared = binding.NewCache(0)
				cfg.PCR.Provider = shared
			}
			s, p := buildBindingStore(t, cfg)
			if s.TubeDigest() != refDigest {
				t.Fatalf("evict=%v workers=%d: tube digest differs after writes", evict, workers)
			}
			for pass := 0; pass < 2; pass++ { // cold then warm
				if evict {
					evictRows(shared)
				}
				gotRange, err := p.ReadRange(0, 11)
				if err != nil {
					t.Fatal(err)
				}
				equalBlockSets(t, "ReadRange", refRange, gotRange)
				gotBlocks, err := p.ReadBlocks([]int{7, 3, 9, 0})
				if err != nil {
					t.Fatal(err)
				}
				equalBlockSets(t, "ReadBlocks", refBlocks, gotBlocks)
				gotAll, err := p.ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				equalBlockSets(t, "ReadAll", refAll, gotAll)
			}
			st, ok := s.BindingStats()
			if !ok {
				t.Fatalf("evict=%v workers=%d: cache reported disabled", evict, workers)
			}
			if st.RowHits == 0 {
				t.Errorf("evict=%v workers=%d: warm passes recorded no row hits", evict, workers)
			}
			if evict && st.Evictions == 0 {
				t.Errorf("workers=%d: evicting the rows before each pass recorded no evictions", workers)
			}
			if s.TubeDigest() != refDigest {
				t.Fatalf("evict=%v workers=%d: reads mutated the tube", evict, workers)
			}
		}
	}
	if _, ok := refStore.BindingStats(); ok {
		t.Error("disabled cache reports stats")
	}
}

// TestBindingProviderShared pins the cross-store sharing contract: a
// caller-supplied provider survives New (it is not displaced by a
// store-private cache), is adopted for stats when it is a
// binding.Cache, and actually accumulates traffic from both stores: a
// second read in each store replays the rows its first read filled.
func TestBindingProviderShared(t *testing.T) {
	shared := binding.NewCache(0)
	var stores []*Store
	for i := 0; i < 2; i++ {
		cfg := testConfig()
		cfg.PCR.Provider = shared
		s := newTestStore(t, cfg)
		p, err := s.CreatePartition("alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WriteBlock(0, []byte("shared provider")); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ReadBlock(0); err != nil {
			t.Fatal(err)
		}
		before := shared.Stats()
		if _, err := p.ReadBlock(0); err != nil {
			t.Fatal(err)
		}
		if after := shared.Stats(); after.RowHits == before.RowHits {
			t.Errorf("store %d: second read recorded no row hits", i)
		}
		stores = append(stores, s)
	}
	if stores[0].Config().PCR.Provider != binding.Provider(shared) {
		t.Fatal("New displaced the caller-supplied provider")
	}
	st, ok := stores[1].BindingStats()
	if !ok {
		t.Fatal("shared cache not adopted for stats")
	}
	// Each store has its own tube, so its first read aligns against
	// rows of its own; both stores' traffic lands in one counter set.
	if st.Misses == 0 || st.RowHits == 0 {
		t.Errorf("shared cache saw no traffic from both stores: %+v", st)
	}
}

// TestBindingCacheConcurrentReads fans racing range reads, batched
// reads and single-block reads over one store — all sharing one
// binding cache — and checks every result against the serial answers.
// Run with -race (CI does).
func TestBindingCacheConcurrentReads(t *testing.T) {
	s, p := buildBindingStore(t, bindingConfig(0, 2))
	wantRange, err := p.ReadRange(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks, err := p.ReadBlocks([]int{1, 5, 11})
	if err != nil {
		t.Fatal(err)
	}
	want4, err := p.ReadBlock(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				got, err := p.ReadRange(2, 9)
				if err != nil {
					t.Error(err)
					return
				}
				equalBlockSets(t, "concurrent ReadRange", wantRange, got)
			case 1:
				got, err := p.ReadBlocks([]int{1, 5, 11})
				if err != nil {
					t.Error(err)
					return
				}
				equalBlockSets(t, "concurrent ReadBlocks", wantBlocks, got)
			default:
				got, err := p.ReadBlock(4)
				if err != nil {
					t.Error(err)
					return
				}
				equalBlockSets(t, "concurrent ReadBlock", [][]byte{want4}, [][]byte{got})
			}
		}(g)
	}
	wg.Wait()
	if st, ok := s.BindingStats(); !ok || st.RowHits == 0 {
		t.Errorf("shared cache saw no hits across concurrent reads (stats %+v ok=%v)", st, ok)
	}
}
