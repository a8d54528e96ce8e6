package binding

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"dnastore/internal/dna"
	"dnastore/internal/pool"
)

// maxRows bounds how many (primer pair, pool identity) dense rows the
// cache keeps, LRU-evicted at Begin time. Each row costs 8 bytes per
// input species, so the worst case is maxRows x pool size x 8 bytes.
const maxRows = 64

// Stats is a snapshot of a Cache's counters.
type Stats struct {
	RowHits uint64 // Bind answered by an index-addressed row (lock-free)
	// Hits is always 0. It counted a content-addressed layer the cache
	// no longer has and stays so that code reading it still compiles.
	Hits      uint64
	Misses    uint64 // Bind computed an alignment
	Evictions uint64 // rows displaced by the LRU
	Entries   int    // rows currently resident (at most 64)

	// PatternHits and PatternMisses count the compiled-pattern memo:
	// misses ran dna.CompilePattern, hits reused an Eq table.
	PatternHits   uint64
	PatternMisses uint64
}

// HitRate returns the fraction of Bind calls answered without aligning:
// RowHits / (RowHits + Misses), or 0 before any Bind.
func (s Stats) HitRate() float64 {
	total := s.RowHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// HitRateSince returns the hit rate over the window between an earlier
// snapshot and this one, and whether the window saw any Bind calls at
// all — the per-study accounting dnabench and the binding study share.
func (s Stats) HitRateSince(prev Stats) (rate float64, any bool) {
	w := Stats{RowHits: s.RowHits - prev.RowHits, Misses: s.Misses - prev.Misses}
	if w.RowHits+w.Misses == 0 {
		return 0, false
	}
	return w.HitRate(), true
}

// Cache is a bounded, store-level binding cache shared across
// reactions. It keeps per (primer pair, budget, pool identity) dense
// rows indexed by species position, assembled at Begin from
// pool.Version()'s id. Pools are append-only, so a row slot, once
// filled, is valid forever; the id is purely an assembly address, never
// an invalidation hook. A row hit is one atomic load; a row miss aligns
// (the bit-parallel engine makes one alignment ~0.2 µs) and publishes
// the answer into the slot, so readers never take a lock on the hot
// path. At most 64 rows stay resident, least recently begun evicted
// first.
//
// A reaction over a pool with no identity, and the reaction-local
// products past the input pool's length, have no row: every Bind on
// them aligns.
//
// Cache also memoizes dna.CompilePattern per sequence, so repeated
// reactions (and decode pipelines, via the PatternCompiler hook in
// package decode) stop rebuilding Eq tables. The pattern memo is
// unbounded but tiny: one entry per distinct primer or elongated
// primer the store has ever used.
//
// All methods are safe for concurrent use.
type Cache struct {
	rowHits   atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	patHits   atomic.Uint64
	patMisses atomic.Uint64

	rowMu   sync.Mutex
	rows    map[string]*poolRow
	rowTick int64

	patMu sync.RWMutex
	pats  map[string]*dna.Pattern
}

// NewCache returns an empty cache. The argument sizes nothing: it once
// budgeted a content-addressed layer the cache no longer has, and it
// stays so that existing callers compile. The row budget is fixed at 64.
func NewCache(int) *Cache {
	return &Cache{
		rows: make(map[string]*poolRow),
		pats: make(map[string]*dna.Pattern),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.rowMu.Lock()
	entries := len(c.rows)
	c.rowMu.Unlock()
	return Stats{
		RowHits:       c.rowHits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       entries,
		PatternHits:   c.patHits.Load(),
		PatternMisses: c.patMisses.Load(),
	}
}

// Pattern returns the compiled bit-parallel pattern for seq, compiling
// it at most once per distinct sequence.
func (c *Cache) Pattern(seq dna.Seq) *dna.Pattern {
	key := string(dna.AppendPacked(nil, seq))
	c.patMu.RLock()
	p := c.pats[key]
	c.patMu.RUnlock()
	if p != nil {
		c.patHits.Add(1)
		return p
	}
	c.patMisses.Add(1)
	p = dna.CompilePattern(seq)
	c.patMu.Lock()
	if q, ok := c.pats[key]; ok {
		p = q
	} else {
		c.pats[key] = p
	}
	c.patMu.Unlock()
	return p
}

// --- packed row slots ----------------------------------------------------

// Row slots pack a Binding into one uint64 so readers need only an
// atomic load: state in the top bits, then distance, then end. The
// zero word means "not yet filled" (State Unknown is 0, and both None
// and OK set a state bit).
func packBinding(b Binding) uint64 {
	return uint64(b.State)<<62 | uint64(uint32(b.Dist)&0x3fffffff)<<32 | uint64(uint32(b.End))
}

func unpackBinding(x uint64) Binding {
	return Binding{
		State: uint8(x >> 62),
		Dist:  int32(x >> 32 & 0x3fffffff),
		End:   int32(uint32(x)),
	}
}

// poolRow is one (primer pair, pool identity) dense row. The slice is
// published through an atomic pointer; growth copies under mu and
// swaps, so readers never block. A write racing a growth may land in
// the retiring array and be lost — that only costs a recomputation of
// a pure fact, never a wrong answer.
type poolRow struct {
	mu  sync.Mutex
	arr atomic.Pointer[[]atomic.Uint64]
	use atomic.Int64 // LRU stamp, bumped by Begin
}

// grow ensures the row has at least n slots.
func (r *poolRow) grow(n int) {
	cur := r.arr.Load()
	if cur != nil && len(*cur) >= n {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur = r.arr.Load()
	if cur != nil && len(*cur) >= n {
		return
	}
	next := make([]atomic.Uint64, n)
	if cur != nil {
		for i := range *cur {
			next[i].Store((*cur)[i].Load())
		}
	}
	r.arr.Store(&next)
}

func (r *poolRow) load(si int) uint64 {
	cur := r.arr.Load()
	if cur == nil || si >= len(*cur) {
		return 0
	}
	return (*cur)[si].Load()
}

func (r *poolRow) store(si int, x uint64) {
	cur := r.arr.Load()
	if cur != nil && si < len(*cur) {
		(*cur)[si].Store(x)
	}
}

// row returns (creating if needed) the dense row for a pair and pool
// id, bumping its LRU stamp and evicting the coldest row over budget.
// Rows hold only redundant copies of pure facts, so eviction is always
// safe.
func (c *Cache) row(p Pair, maxDist int, id uint64) *poolRow {
	key := string(binary.BigEndian.AppendUint64(appendPairKey(nil, p, maxDist), id))
	c.rowMu.Lock()
	defer c.rowMu.Unlock()
	c.rowTick++
	r, ok := c.rows[key]
	if !ok {
		if len(c.rows) >= maxRows {
			var coldKey string
			coldUse := int64(1<<63 - 1)
			for k, v := range c.rows {
				if u := v.use.Load(); u < coldUse {
					coldKey, coldUse = k, u
				}
			}
			delete(c.rows, coldKey)
			c.evictions.Add(1)
		}
		r = &poolRow{}
		c.rows[key] = r
	}
	r.use.Store(c.rowTick)
	return r
}

// --- the cached reaction -------------------------------------------------

// Begin starts one reaction: patterns come from the memo, each pair
// attaches its input-pool row (when the pool has an identity), and
// every Bind consults the row, then aligns.
func (c *Cache) Begin(pairs []Pair, maxDist int, input *pool.Pool) Reaction {
	rx := &cachedReaction{c: c, maxDist: maxDist, pairs: make([]cachedPair, len(pairs))}
	var id uint64
	if input != nil {
		id, _ = input.Version()
		rx.n0 = input.Len()
	}
	for i, p := range pairs {
		cp := cachedPair{cp: compiledPair{fwd: c.Pattern(p.Fwd), rev: c.Pattern(p.Rev)}}
		// A pool that never saw an Add reports id 0 and could alias
		// another fresh pool; it also has no species, so skip the row.
		if id != 0 && rx.n0 > 0 {
			cp.row = c.row(p, maxDist, id)
			cp.row.grow(rx.n0)
		}
		rx.pairs[i] = cp
	}
	return rx
}

type cachedPair struct {
	cp  compiledPair
	row *poolRow
}

type cachedReaction struct {
	c       *Cache
	maxDist int
	n0      int // input species count at Begin; rows address [0, n0)
	pairs   []cachedPair
}

func (r *cachedReaction) Bind(pi, si int, template dna.Packed) Binding {
	p := &r.pairs[pi]
	inRow := p.row != nil && si >= 0 && si < r.n0
	if inRow {
		if x := p.row.load(si); x != 0 {
			r.c.rowHits.Add(1)
			return unpackBinding(x)
		}
	}
	r.c.misses.Add(1)
	b := p.cp.bindPacked(template, r.maxDist)
	if inRow {
		p.row.store(si, packBinding(b))
	}
	return b
}
