package binding

import (
	"sync"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
)

// randSeq fabricates a random sequence of length n.
func randSeq(r *rng.Source, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(4))
	}
	return s
}

// mutate returns a copy of s with k random substitutions, producing
// templates near (but not at) binding distance 0.
func mutate(r *rng.Source, s dna.Seq, k int) dna.Seq {
	out := s.Clone()
	for i := 0; i < k; i++ {
		out[r.Intn(len(out))] = dna.Base(r.Intn(4))
	}
	return out
}

// testWorkload builds primer pairs and templates that exercise every
// binding state: exact matches, near matches, and rejections.
func testWorkload(seed uint64) (pairs []Pair, templates []dna.Seq) {
	r := rng.New(seed)
	for i := 0; i < 3; i++ {
		pairs = append(pairs, Pair{Fwd: randSeq(r, 20+i*4), Rev: randSeq(r, 20)})
	}
	for _, p := range pairs {
		body := randSeq(r, 100)
		exact := dna.Concat(p.Fwd, body, p.Rev)
		templates = append(templates, exact, mutate(r, exact, 2), mutate(r, exact, 8))
	}
	for i := 0; i < 4; i++ {
		templates = append(templates, randSeq(r, 150)) // unrelated
	}
	return pairs, templates
}

// packAll packs templates into the zero-copy form Bind consumes.
func packAll(ts []dna.Seq) []dna.Packed {
	out := make([]dna.Packed, len(ts))
	for i, t := range ts {
		out[i] = dna.Pack(t)
	}
	return out
}

// templatePool materializes the templates as a pool, giving them the
// species indexes a reaction would see.
func templatePool(templates []dna.Seq) *pool.Pool {
	p := pool.New()
	for i, t := range templates {
		p.Add(t, float64(i+1), pool.Meta{Block: i})
	}
	return p
}

// TestCachedMatchesDirect pins the cache's only contract that matters:
// for every (pair, species), the cached provider returns exactly the
// binding the Direct provider computes — on the first (miss) pass, the
// row-hit pass over the same pool, and a pass over a clone of the pool
// (fresh identity, same sequences), which gets rows of its own and so
// aligns again.
func TestCachedMatchesDirect(t *testing.T) {
	pairs, templates := testWorkload(1)
	pts := packAll(templates)
	p := templatePool(templates)
	const maxDist = 5
	direct := Direct{}.Begin(pairs, maxDist, p)
	cache := NewCache(0)
	pools := []*pool.Pool{p, p, p.Clone()}
	for pass, pp := range pools {
		rx := cache.Begin(pairs, maxDist, pp)
		for pi := range pairs {
			for ti, tmpl := range pts {
				want := direct.Bind(pi, ti, tmpl)
				got := rx.Bind(pi, ti, tmpl)
				if got != want {
					t.Fatalf("pass %d pair %d template %d: cached %+v, direct %+v",
						pass, pi, ti, got, want)
				}
				if got.State == Unknown {
					t.Fatalf("Bind returned Unknown state")
				}
			}
		}
	}
	st := cache.Stats()
	n := uint64(len(pairs) * len(templates))
	if st.RowHits != n {
		t.Errorf("row hits %d, want %d: the second pass over the same pool should hit every slot", st.RowHits, n)
	}
	if st.Misses != 2*n {
		t.Errorf("misses %d, want %d: the first pass and the clone's pass align every slot", st.Misses, 2*n)
	}
	if st.Hits != 0 {
		t.Errorf("hits %d, want 0", st.Hits)
	}
	if want := 2 * len(pairs); st.Entries != want {
		t.Errorf("resident rows %d, want %d (one per pair per pool identity)", st.Entries, want)
	}
	if got := st.HitRate(); got != 1.0/3 {
		t.Errorf("hit rate %.3f, want 1/3", got)
	}
}

// TestBudgetIsPartOfTheKey guards the subtle invalidation hazard: a
// None verdict at a small budget must not be served for a larger one
// from the identity rows.
func TestBudgetIsPartOfTheKey(t *testing.T) {
	r := rng.New(7)
	p := Pair{Fwd: randSeq(r, 20), Rev: randSeq(r, 20)}
	tmpl := dna.Concat(mutate(r, p.Fwd, 3), randSeq(r, 100), p.Rev)
	pl := templatePool([]dna.Seq{tmpl})
	pt := dna.Pack(tmpl)
	cache := NewCache(0)
	tight := cache.Begin([]Pair{p}, 1, pl).Bind(0, 0, pt)
	loose := cache.Begin([]Pair{p}, 8, pl).Bind(0, 0, pt)
	wantTight := Direct{}.Begin([]Pair{p}, 1, pl).Bind(0, 0, pt)
	wantLoose := Direct{}.Begin([]Pair{p}, 8, pl).Bind(0, 0, pt)
	if tight != wantTight {
		t.Errorf("budget 1: cached %+v, direct %+v", tight, wantTight)
	}
	if loose != wantLoose {
		t.Errorf("budget 8: cached %+v, direct %+v", loose, wantLoose)
	}
	if tight.State != None || loose.State != OK {
		t.Fatalf("workload does not separate budgets: tight %+v loose %+v", tight, loose)
	}
}

// TestPackBindingRoundTrip pins the packed row-slot codec, including
// that no real binding packs to the reserved zero word.
func TestPackBindingRoundTrip(t *testing.T) {
	cases := []Binding{
		{State: None},
		{State: OK},
		{State: OK, Dist: 5, End: 31},
		{State: OK, Dist: 0x3fffffff, End: 1<<31 - 1},
	}
	for _, b := range cases {
		x := packBinding(b)
		if x == 0 {
			t.Errorf("%+v packs to the reserved zero word", b)
		}
		if got := unpackBinding(x); got != b {
			t.Errorf("round trip %+v -> %+v", b, got)
		}
	}
}

// TestEvictionUnderPressure fills a pool's rows, pushes them out with
// more pool identities than the row budget admits, and reads the first
// pool again: its evicted rows are simply rebuilt (every slot aligns
// afresh) and every answer still equals Direct's.
func TestEvictionUnderPressure(t *testing.T) {
	pairs, templates := testWorkload(3)
	r := rng.New(9)
	for i := 0; i < 400; i++ {
		templates = append(templates, randSeq(r, 150))
	}
	pts := packAll(templates)
	p := templatePool(templates)
	const maxDist = 5
	cache := NewCache(0)
	direct := Direct{}.Begin(pairs, maxDist, p)
	check := func(pass int, pp *pool.Pool) {
		rx := cache.Begin(pairs, maxDist, pp)
		for pi := range pairs {
			for ti, tmpl := range pts {
				if got, want := rx.Bind(pi, ti, tmpl), direct.Bind(pi, ti, tmpl); got != want {
					t.Fatalf("pass %d pair %d template %d under pressure: %+v want %+v",
						pass, pi, ti, got, want)
				}
			}
		}
	}
	check(0, p)
	clones := maxRows/len(pairs) + 1 // enough fresh identities to push p's rows out
	for i := 0; i < clones; i++ {
		check(1+i, p.Clone())
	}
	before := cache.Stats()
	check(1+clones, p)
	st := cache.Stats()
	n := uint64(len(pairs) * len(templates))
	if got := st.Misses - before.Misses; got != n {
		t.Errorf("re-reading the evicted pool aligned %d slots, want all %d", got, n)
	}
	if want := uint64((2+clones)*len(pairs) - maxRows); st.Evictions != want {
		t.Errorf("evictions %d, want %d", st.Evictions, want)
	}
	if st.Entries != maxRows {
		t.Errorf("resident rows %d, want the %d-row budget", st.Entries, maxRows)
	}
}

// TestRowsLargerThanCache is the point-read regime: reactions each
// pair a never-seen elongated primer with the one main primer, over one
// pool, for more distinct pairs than the cache has rows. Resident rows
// stay within the budget, Evictions counts every displaced row, the
// main pair's row stays resident (it is begun by every reaction) and
// keeps hitting, and every answer equals Direct's.
func TestRowsLargerThanCache(t *testing.T) {
	r := rng.New(23)
	main := Pair{Fwd: randSeq(r, 20), Rev: randSeq(r, 20)}
	const reactions = maxRows + maxRows/2
	elongated := make([]Pair, reactions)
	var templates []dna.Seq
	for i := range elongated {
		elongated[i] = Pair{Fwd: dna.Concat(main.Fwd, randSeq(r, 6)), Rev: main.Rev}
		if i%8 == 0 {
			exact := dna.Concat(elongated[i].Fwd, randSeq(r, 100), main.Rev)
			templates = append(templates, exact, mutate(r, exact, 2))
		}
	}
	for i := 0; i < 8; i++ {
		templates = append(templates, randSeq(r, 150))
	}
	pts := packAll(templates)
	p := templatePool(templates)
	const maxDist = 5
	cache := NewCache(0)
	oks := 0
	for i, e := range elongated {
		pairs := []Pair{e, main}
		rx := cache.Begin(pairs, maxDist, p)
		direct := Direct{}.Begin(pairs, maxDist, p)
		for pi := range pairs {
			for ti, tmpl := range pts {
				got, want := rx.Bind(pi, ti, tmpl), direct.Bind(pi, ti, tmpl)
				if got != want {
					t.Fatalf("reaction %d pair %d template %d: cached %+v, direct %+v",
						i, pi, ti, got, want)
				}
				if pi == 0 && got.State == OK {
					oks++
				}
			}
		}
		if st := cache.Stats(); st.Entries > maxRows {
			t.Fatalf("reaction %d: %d resident rows exceed the %d-row budget", i, st.Entries, maxRows)
		}
	}
	if oks == 0 {
		t.Fatal("workload binds no elongated primer; the comparison covers only None")
	}
	st := cache.Stats()
	rows := reactions + 1 // one per elongated pair, plus the main pair's
	if want := uint64(rows - maxRows); st.Evictions != want {
		t.Errorf("evictions %d, want %d", st.Evictions, want)
	}
	if st.Entries != maxRows {
		t.Errorf("resident rows %d, want %d", st.Entries, maxRows)
	}
	nt := uint64(len(templates))
	if want := uint64(reactions-1) * nt; st.RowHits != want {
		t.Errorf("row hits %d, want %d (the main pair's row after its first reaction)", st.RowHits, want)
	}
	if want := uint64(rows) * nt; st.Misses != want {
		t.Errorf("misses %d, want %d (each row aligns each template once)", st.Misses, want)
	}
}

// TestRowEviction cycles more pool identities through one cache than
// the row budget admits and checks answers stay correct throughout.
func TestRowEviction(t *testing.T) {
	pairs, templates := testWorkload(21)
	pts := packAll(templates)
	const maxDist = 5
	base := templatePool(templates)
	direct := Direct{}.Begin(pairs, maxDist, base)
	cache := NewCache(0)
	for i := 0; i < 3*maxRows; i++ {
		pp := base.Clone()
		rx := cache.Begin(pairs, maxDist, pp)
		for ti, tmpl := range pts {
			if got, want := rx.Bind(0, ti, tmpl), direct.Bind(0, ti, tmpl); got != want {
				t.Fatalf("identity %d template %d: %+v want %+v", i, ti, got, want)
			}
		}
	}
	if n := cache.Stats().Entries; n > maxRows {
		t.Errorf("%d resident rows exceed the %d-row budget", n, maxRows)
	}
}

// TestPatternMemo checks that Begin reuses compiled patterns across
// reactions and that the decode-facing Pattern hook shares the memo.
func TestPatternMemo(t *testing.T) {
	pairs, templates := testWorkload(5)
	p := templatePool(templates)
	cache := NewCache(0)
	cache.Begin(pairs, 5, p)
	before := cache.Stats()
	cache.Begin(pairs, 5, p)
	after := cache.Stats()
	if after.PatternMisses != before.PatternMisses {
		t.Errorf("second Begin compiled %d new patterns", after.PatternMisses-before.PatternMisses)
	}
	if after.PatternHits <= before.PatternHits {
		t.Error("second Begin did not hit the pattern memo")
	}
	p1 := cache.Pattern(pairs[0].Fwd)
	p2 := cache.Pattern(pairs[0].Fwd)
	if p1 != p2 {
		t.Error("Pattern returned distinct compilations for one sequence")
	}
}

// TestConcurrentBind hammers one cache from many goroutines (the shape
// of a fanned range read: several reactions over one tube identity,
// plus clones) and cross-checks every answer against Direct. Run with
// -race.
func TestConcurrentBind(t *testing.T) {
	pairs, templates := testWorkload(11)
	pts := packAll(templates)
	p := templatePool(templates)
	const maxDist = 5
	direct := Direct{}.Begin(pairs, maxDist, p)
	want := make([][]Binding, len(pairs))
	for pi := range pairs {
		want[pi] = make([]Binding, len(templates))
		for ti, tmpl := range pts {
			want[pi][ti] = direct.Bind(pi, ti, tmpl)
		}
	}
	cache := NewCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			input := p
			if g%2 == 1 {
				input = p.Clone() // a fresh identity: rows of its own, filled concurrently
			}
			rx := cache.Begin(pairs, maxDist, input)
			for rep := 0; rep < 20; rep++ {
				for pi := range pairs {
					for ti, tmpl := range pts {
						if got := rx.Bind(pi, ti, tmpl); got != want[pi][ti] {
							t.Errorf("goroutine %d: pair %d template %d mismatch", g, pi, ti)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDirectBindAllocs pins the zero-allocation property of the
// alignment itself, the innermost loop of every reaction (moved here
// from package pcr with the binding code).
func TestDirectBindAllocs(t *testing.T) {
	pairs, templates := testWorkload(13)
	rx := Direct{}.Begin(pairs, 5, nil)
	tmpl := dna.Pack(templates[0])
	far := dna.Pack(templates[len(templates)-1])
	if avg := testing.AllocsPerRun(200, func() { rx.Bind(0, 0, tmpl) }); avg != 0 {
		t.Errorf("direct bind (match) allocates %.1f times per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { rx.Bind(0, 0, far) }); avg != 0 {
		t.Errorf("direct bind (reject) allocates %.1f times per call, want 0", avg)
	}
}

// TestCachedHitAllocs pins the warm path: a row hit (one atomic load)
// may not allocate.
func TestCachedHitAllocs(t *testing.T) {
	pairs, templates := testWorkload(17)
	p := templatePool(templates)
	cache := NewCache(0)
	rx := cache.Begin(pairs, 5, p)
	tmpl := dna.Pack(templates[0])
	rx.Bind(0, 0, tmpl) // populate the row
	if avg := testing.AllocsPerRun(200, func() { rx.Bind(0, 0, tmpl) }); avg != 0 {
		t.Errorf("row hit allocates %.1f times per call, want 0", avg)
	}
}

// TestBindMissAllocs pins the cold path: a row miss — the first Bind of
// a slot, which aligns and publishes the answer — allocates nothing,
// and neither does a Bind on a reaction without rows.
func TestBindMissAllocs(t *testing.T) {
	pairs, templates := testWorkload(29)
	r := rng.New(31)
	for len(templates) < 256 {
		templates = append(templates, randSeq(r, 150))
	}
	pts := packAll(templates)
	cache := NewCache(0)
	rx := cache.Begin(pairs, 5, templatePool(templates))
	before := cache.Stats()
	si := 0
	avg := testing.AllocsPerRun(200, func() {
		rx.Bind(si%len(pairs), si, pts[si])
		si++
	})
	if avg != 0 {
		t.Errorf("row miss allocates %.1f times per call, want 0", avg)
	}
	if st := cache.Stats(); st.RowHits != before.RowHits || st.Misses-before.Misses != uint64(si) {
		t.Fatalf("calls were not all row misses: %d row hits, %d misses over %d calls",
			st.RowHits-before.RowHits, st.Misses-before.Misses, si)
	}
	rowless := cache.Begin(pairs, 5, nil)
	if avg := testing.AllocsPerRun(200, func() { rowless.Bind(0, 0, pts[0]) }); avg != 0 {
		t.Errorf("rowless bind allocates %.1f times per call, want 0", avg)
	}
}

// BenchmarkBindRowHit / BenchmarkBindDirect report the per-binding
// cost of the two regimes: an identity-row hit and a fresh alignment
// (which is also what a row miss costs).
func BenchmarkBindRowHit(b *testing.B) {
	pairs, templates := testWorkload(19)
	pts := packAll(templates)
	p := templatePool(templates)
	cache := NewCache(0)
	rx := cache.Begin(pairs, 5, p)
	for ti, tmpl := range pts {
		rx.Bind(0, ti, tmpl)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := i % len(pts)
		rx.Bind(0, ti, pts[ti])
	}
}

func BenchmarkBindDirect(b *testing.B) {
	pairs, templates := testWorkload(19)
	pts := packAll(templates)
	rx := Direct{}.Begin(pairs, 5, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := i % len(pts)
		rx.Bind(0, ti, pts[ti])
	}
}

// editAt applies k random edits (substitution, insertion, deletion) to
// s, each within two bases of position at.
func editAt(r *rng.Source, s dna.Seq, at, k int) dna.Seq {
	out := s.Clone()
	for i := 0; i < k; i++ {
		pos := at - 2 + r.Intn(5)
		if pos < 0 {
			pos = 0
		}
		if pos > len(out) {
			pos = len(out)
		}
		switch op := r.Intn(3); {
		case op == 0 && pos < len(out):
			out[pos] = dna.Base((int(out[pos]) + 1 + r.Intn(3)) % 4)
		case op == 1 || len(out) < 2:
			out = append(out[:pos], append(dna.Seq{dna.Base(r.Intn(4))}, out[pos:]...)...)
		default:
			if pos == len(out) {
				pos--
			}
			out = append(out[:pos], out[pos+1:]...)
		}
	}
	return out
}

// TestNestsLemma checks Nests' proof against the aligner it reasons
// about: over random partition primers, elongations and templates —
// edits anywhere in the forward primer, indels at the join between the
// primer and its elongation, templates shorter than the forward window
// — whenever Nests holds, a parent None from bindPacked implies a child
// None, and a child binding implies a parent binding at no greater
// distance.
func TestNestsLemma(t *testing.T) {
	r := rng.New(99)
	var parentNone, childOnlyNone, bothOK int
	for trial := 0; trial < 400; trial++ {
		fwd, rev := randSeq(r, 18+r.Intn(6)), randSeq(r, 20)
		child := Pair{Fwd: dna.Concat(fwd, randSeq(r, 1+r.Intn(12))), Rev: rev}
		parent := Pair{Fwd: fwd, Rev: rev}
		cp := compilePairs([]Pair{parent, child})
		for k := 0; k < 8; k++ {
			var tmpl dna.Seq
			switch k % 4 {
			case 0: // edits across the whole forward primer
				tmpl = dna.Concat(mutate(r, child.Fwd, r.Intn(5)), randSeq(r, 40), rev)
			case 1: // indels at the prefix/extension join, up to a run of AlignSlack+2 inserted bases
				joined := dna.Concat(fwd, randSeq(r, r.Intn(AlignSlack+3)), child.Fwd[len(fwd):])
				tmpl = dna.Concat(editAt(r, joined, len(fwd), r.Intn(4)), randSeq(r, 40), rev)
			case 2: // shorter than the forward window
				full := dna.Concat(editAt(r, child.Fwd, len(fwd), r.Intn(4)), rev)
				tmpl = full[:min(len(full), len(fwd)+r.Intn(AlignSlack+len(rev)))]
			default: // reverse end edited too
				tmpl = dna.Concat(editAt(r, child.Fwd, r.Intn(len(child.Fwd)), r.Intn(4)), randSeq(r, 30), mutate(r, rev, r.Intn(3)))
			}
			packed := dna.Pack(tmpl)
			for maxDist := 0; maxDist <= AlignSlack; maxDist++ {
				if !Nests(parent, child, maxDist) {
					t.Fatalf("Nests(%v, %v, %d) = false", parent.Fwd, child.Fwd, maxDist)
				}
				bp := cp[0].bindPacked(packed, maxDist)
				bc := cp[1].bindPacked(packed, maxDist)
				switch {
				case bp.State == None && bc.State != None:
					t.Fatalf("maxDist %d template %v: parent None but child %+v", maxDist, tmpl, bc)
				case bc.State == OK && bc.Dist < bp.Dist:
					t.Fatalf("maxDist %d template %v: child distance %d below parent's %d", maxDist, tmpl, bc.Dist, bp.Dist)
				case bp.State == None:
					parentNone++
				case bc.State == None:
					childOnlyNone++
				default:
					bothOK++
				}
			}
		}
	}
	if parentNone == 0 || childOnlyNone == 0 || bothOK == 0 {
		t.Errorf("workload misses a case: %d parent None, %d child-only None, %d both OK", parentNone, childOnlyNone, bothOK)
	}
}

// TestNestsRejects pins the cases Nests must refuse: a different
// reverse primer, a budget past AlignSlack, and a forward primer that
// is not a proper prefix (equal, longer, or diverging).
func TestNestsRejects(t *testing.T) {
	r := rng.New(5)
	fwd, rev := randSeq(r, 20), randSeq(r, 20)
	parent := Pair{Fwd: fwd, Rev: rev}
	child := Pair{Fwd: dna.Concat(fwd, randSeq(r, 6)), Rev: rev}
	if !Nests(parent, child, AlignSlack) {
		t.Fatal("elongated pair not nested under its partition pair")
	}
	diverge := child.Fwd.Clone()
	diverge[3] = (diverge[3] + 1) % 4
	for name, c := range map[string]struct {
		parent, child Pair
		maxDist       int
	}{
		"different rev":  {parent, Pair{Fwd: child.Fwd, Rev: randSeq(r, 20)}, 3},
		"budget > slack": {parent, child, AlignSlack + 1},
		"equal fwd":      {parent, Pair{Fwd: fwd.Clone(), Rev: rev}, 3},
		"reversed roles": {child, parent, 3},
		"not a prefix":   {parent, Pair{Fwd: diverge, Rev: rev}, 3},
	} {
		if Nests(c.parent, c.child, c.maxDist) {
			t.Errorf("%s: Nests = true", name)
		}
	}
}
