package pcr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dnastore/internal/binding"
	"dnastore/internal/dna"
	"dnastore/internal/parallel"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
)

var (
	fwdP = dna.MustFromString("ACGTACGTACGTACGTACGA")
	revP = dna.MustFromString("TGCATGCATGCATGCATGCA")
)

// strand fabricates a 150-base strand: fwd + sync A + index + filler + rev.
func strand(index string, fillerSeed uint64) dna.Seq {
	idx := dna.MustFromString(index)
	fillerLen := 150 - len(fwdP) - 1 - len(idx) - len(revP)
	r := rng.New(fillerSeed)
	filler := make(dna.Seq, fillerLen)
	for i := range filler {
		filler[i] = dna.Base(r.Intn(4))
	}
	return dna.Concat(fwdP, dna.Seq{dna.A}, idx, filler, revP)
}

// elongated returns the elongated forward primer for an index.
func elongated(index string) dna.Seq {
	return dna.Concat(fwdP, dna.Seq{dna.A}, dna.MustFromString(index))
}

func params(capacity float64) Params {
	p := DefaultParams()
	p.Capacity = capacity
	return p
}

func TestValidation(t *testing.T) {
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 100, pool.Meta{})
	good := []Primer{{Fwd: fwdP, Rev: revP, Conc: 1}}
	if _, _, err := Run(p, good, DefaultParams()); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, _, err := Run(p, nil, params(1e6)); err == nil {
		t.Error("no primers accepted")
	}
	if _, _, err := Run(p, []Primer{{Fwd: fwdP, Rev: revP, Conc: 0}}, params(1e6)); err == nil {
		t.Error("zero concentration accepted")
	}
	if _, _, err := Run(p, []Primer{{Fwd: nil, Rev: revP, Conc: 1}}, params(1e6)); err == nil {
		t.Error("empty primer accepted")
	}
	bad := params(1e6)
	bad.Cycles = 0
	if _, _, err := Run(p, good, bad); err == nil {
		t.Error("zero cycles accepted")
	}
	bad = params(1e6)
	bad.Efficiency = 1.5
	if _, _, err := Run(p, good, bad); err == nil {
		t.Error("efficiency > 1 accepted")
	}
}

func TestPerfectMatchAmplifiesExponentially(t *testing.T) {
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 100, pool.Meta{Block: 0, OriginBlock: 0})
	pr := []Primer{{Fwd: fwdP, Rev: revP, Conc: 1}}
	pm := params(1e12) // effectively unlimited
	pm.Cycles = 10
	out, stats, err := Run(p, pr, pm)
	if err != nil {
		t.Fatal(err)
	}
	// 10 cycles at 0.95 efficiency: gain ~(1.95)^10 ~ 790x.
	gain := out.Total() / 100
	if gain < 400 || gain > 1000 {
		t.Errorf("gain %.0fx, want ~790x", gain)
	}
	if stats.InitialTotal != 100 {
		t.Errorf("initial total %v", stats.InitialTotal)
	}
	if stats.MisprimeSpecies != 0 {
		t.Errorf("misprimes in a single-species pool: %d", stats.MisprimeSpecies)
	}
}

func TestInputPoolUnmodified(t *testing.T) {
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 100, pool.Meta{})
	if _, _, err := Run(p, []Primer{{Fwd: fwdP, Rev: revP, Conc: 1}}, params(1e9)); err != nil {
		t.Fatal(err)
	}
	if p.Total() != 100 {
		t.Errorf("input pool modified: total %v", p.Total())
	}
}

func TestUnrelatedSpeciesDoNotAmplify(t *testing.T) {
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 100, pool.Meta{Block: 0, OriginBlock: 0})
	// A strand with completely different primers.
	otherFwd := dna.MustFromString("GGTTCCAAGGTTCCAAGGTT")
	otherRev := dna.MustFromString("CCAATTGGCCAATTGGCCAA")
	other := dna.Concat(otherFwd, dna.MustFromString("A"), strand("ACGTACGTAC", 2)[21:130], otherRev)
	p.Add(other, 100, pool.Meta{Block: 5, OriginBlock: 5})
	pm := params(1e12)
	pm.Cycles = 10
	out, _, err := Run(p, []Primer{{Fwd: fwdP, Rev: revP, Conc: 1}}, pm)
	if err != nil {
		t.Fatal(err)
	}
	var targetMass, otherMass float64
	for i, n := 0, out.Len(); i < n; i++ {
		if out.MetaAt(i).Block == 5 {
			otherMass += out.Abundance(i)
		} else {
			targetMass += out.Abundance(i)
		}
	}
	if otherMass > 110 {
		t.Errorf("unrelated species amplified: %v", otherMass)
	}
	if targetMass < 40000 {
		t.Errorf("target under-amplified: %v", targetMass)
	}
}

func TestCapacityPlateau(t *testing.T) {
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 1000, pool.Meta{})
	pm := params(50_000)
	pm.Cycles = 40
	out, _, err := Run(p, []Primer{{Fwd: fwdP, Rev: revP, Conc: 1}}, pm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Total() > pm.Capacity*1.01 {
		t.Errorf("total %v exceeded capacity %v", out.Total(), pm.Capacity)
	}
	if out.Total() < pm.Capacity*0.5 {
		t.Errorf("total %v far below capacity; plateau too aggressive", out.Total())
	}
}

func TestMisprimeOverwritesIndexKeepsPayload(t *testing.T) {
	// Section 8.1: misprimed strands acquire the target's primer prefix
	// but retain their original payloads.
	p := pool.New()
	target := "ACGTACGTAC"
	near := "ACGTACGTGA" // edit distance 2 from target
	p.Add(strand(target, 1), 1000, pool.Meta{Block: 531, OriginBlock: 531})
	p.Add(strand(near, 2), 1000, pool.Meta{Block: 530, OriginBlock: 530})
	ep := elongated(target)
	pm := params(5e7)
	pm.Cycles = 28
	out, stats, err := Run(p, []Primer{{Fwd: ep, Rev: revP, Conc: 1}}, pm)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MisprimeSpecies == 0 {
		t.Fatal("no misprimed species created from a distance-2 neighbor")
	}
	var misprimed *pool.Species
	for i, n := 0, out.Len(); i < n; i++ {
		if out.MetaAt(i).Misprimed {
			sp := out.SpeciesAt(i)
			misprimed = &sp
			break
		}
	}
	if misprimed == nil {
		t.Fatal("misprimed species not found")
	}
	if !misprimed.Seq.HasPrefix(ep) {
		t.Error("misprimed product does not carry the elongated primer prefix")
	}
	if misprimed.Meta.OriginBlock != 530 {
		t.Errorf("misprimed payload origin %d want 530", misprimed.Meta.OriginBlock)
	}
	// The misprimed mass should be visible but the true target dominant.
	var targetMass float64
	for i, n := 0, out.Len(); i < n; i++ {
		if m := out.MetaAt(i); m.OriginBlock == 531 && !m.Misprimed {
			targetMass += out.Abundance(i)
		}
	}
	if stats.MisprimedMass <= 0 {
		t.Error("no misprimed mass")
	}
	if targetMass <= stats.MisprimedMass {
		t.Errorf("target mass %v not dominant over misprimed %v (Section 3.2 requirement)",
			targetMass, stats.MisprimedMass)
	}
}

func TestTouchdownReducesMispriming(t *testing.T) {
	// Section 6.5 uses touchdown PCR "to increase the specificity of the
	// amplification process". With the ramp disabled, the misprimed
	// fraction must grow.
	build := func() *pool.Pool {
		p := pool.New()
		p.Add(strand("ACGTACGTAC", 1), 1000, pool.Meta{Block: 1, OriginBlock: 1})
		p.Add(strand("ACGTACGTGA", 2), 1000, pool.Meta{Block: 2, OriginBlock: 2})
		p.Add(strand("ACGTACTGAC", 3), 1000, pool.Meta{Block: 3, OriginBlock: 3})
		return p
	}
	run := func(touchdown bool) float64 {
		pm := params(1e8)
		if !touchdown {
			pm.TouchdownStart = 0
		}
		out, stats, err := Run(build(), []Primer{{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1}}, pm)
		if err != nil {
			t.Fatal(err)
		}
		return stats.MisprimedMass / out.Total()
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("touchdown misprime fraction %.4f not below constant-temp %.4f", with, without)
	}
	if without == 0 {
		t.Error("no mispriming even without touchdown; model inert")
	}
}

func TestMultiplexAmplifiesAllTargets(t *testing.T) {
	// Section 6.5: an equal mix of three elongated primers with total
	// concentration equal to the single-primer case.
	p := pool.New()
	idxs := []string{"ACGTACGTAC", "CAGTCAGTCA", "GTCAGTCAGT"}
	for i, idx := range idxs {
		p.Add(strand(idx, uint64(i+1)), 1000, pool.Meta{Block: i, OriginBlock: i})
	}
	// Plus background blocks.
	p.Add(strand("TTGACCATGA", 9), 1000, pool.Meta{Block: 99, OriginBlock: 99})
	var primers []Primer
	for _, idx := range idxs {
		primers = append(primers, Primer{Fwd: elongated(idx), Rev: revP, Conc: 1.0 / 3})
	}
	pm := params(1e8)
	out, _, err := Run(p, primers, pm)
	if err != nil {
		t.Fatal(err)
	}
	mass := out.AbundanceByBlock("")
	for i := range idxs {
		if mass[i] < 100*mass[99] {
			t.Errorf("multiplex target %d mass %v not dominant over background %v",
				i, mass[i], mass[99])
		}
	}
}

func TestResidualPrimerCarryover(t *testing.T) {
	// Leftover main primers from a previous reaction amplify everything
	// in the partition at low efficiency; they are modeled as an extra
	// primer pair at low concentration. Their products caused 18% of the
	// paper's Figure 9b readout.
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 1000, pool.Meta{Block: 1, OriginBlock: 1})
	p.Add(strand("TTGACCATGA", 2), 1000, pool.Meta{Block: 2, OriginBlock: 2})
	primers := []Primer{
		{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.05}, // residual main primers
	}
	pm := params(1e7)
	out, _, err := Run(p, primers, pm)
	if err != nil {
		t.Fatal(err)
	}
	mass := out.AbundanceByBlock("")
	if mass[2] <= 1000 {
		t.Error("carryover primer did not amplify the background at all")
	}
	if mass[1] < 5*mass[2] {
		t.Errorf("target %v not dominant over carryover-amplified background %v",
			mass[1], mass[2])
	}
}

func TestAnnealTempSchedule(t *testing.T) {
	pm := DefaultParams()
	if got := pm.annealTemp(0); got != 65 {
		t.Errorf("cycle 0 temp %v want 65", got)
	}
	if got := pm.annealTemp(9); got != 56 {
		t.Errorf("cycle 9 temp %v want 56", got)
	}
	if got := pm.annealTemp(10); got != 55 {
		t.Errorf("cycle 10 temp %v want 55", got)
	}
	if got := pm.annealTemp(27); got != 55 {
		t.Errorf("cycle 27 temp %v want 55", got)
	}
	pm.TouchdownStart = 0
	if got := pm.annealTemp(0); got != 55 {
		t.Errorf("touchdown disabled: cycle 0 temp %v want 55", got)
	}
}

func TestSuffixDistance(t *testing.T) {
	if d := suffixDistance(revP, strand("ACGTACGTAC", 1)); d != 0 {
		t.Errorf("exact suffix distance %d", d)
	}
	other := dna.MustFromString("CCAATTGGCCAATTGGCCAA")
	if d := suffixDistance(other, strand("ACGTACGTAC", 1)); d < 5 {
		t.Errorf("unrelated suffix distance %d too small", d)
	}
}

func TestParamsValidateMessages(t *testing.T) {
	pm := DefaultParams()
	pm.Capacity = 0
	err := pm.Validate()
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("capacity error: %v", err)
	}
}

func BenchmarkRunSmallPool(b *testing.B) {
	p := pool.New()
	for i := 0; i < 50; i++ {
		p.Add(strand("ACGTACGTAC", uint64(i)), 100, pool.Meta{Block: i, OriginBlock: i})
	}
	primers := []Primer{{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1}}
	pm := params(1e8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(p, primers, pm); err != nil {
			b.Fatal(err)
		}
	}
}

// buildPool fabricates a pool of n distinct strands with varied indexes.
func buildPool(n int) *pool.Pool {
	bases := "ACGT"
	p := pool.New()
	for i := 0; i < n; i++ {
		idx := make([]byte, 10)
		v := i
		for j := range idx {
			idx[j] = bases[v&3]
			v >>= 2
		}
		p.Add(strand(string(idx), uint64(i)), 100+float64(i%7), pool.Meta{Block: i, OriginBlock: i})
	}
	return p
}

// poolFingerprint captures species order, sequences and exact abundance
// bits for byte-identity comparisons.
func poolFingerprint(p *pool.Pool) []string {
	out := make([]string, 0, p.Len())
	for i, n := 0, p.Len(); i < n; i++ {
		s := p.SpeciesAt(i)
		out = append(out, s.Seq.String()+"|"+strconv.FormatUint(math.Float64bits(s.Abundance), 16))
	}
	return out
}

// TestRunWorkersDeterministic pins the tentpole contract: the amplified
// pool is byte-identical (species order, sequences, abundance bits) at
// any worker count.
func TestRunWorkersDeterministic(t *testing.T) {
	input := buildPool(64)
	pr := []Primer{
		{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.02},
	}
	base := params(64 * 100 * 40)
	var want []string
	var wantStats Stats
	for _, workers := range []int{0, 1, 2, 3, 8, -1} {
		ps := base
		ps.Workers = workers
		out, stats, err := Run(input, pr, ps)
		if err != nil {
			t.Fatal(err)
		}
		got := poolFingerprint(out)
		if want == nil {
			want, wantStats = got, stats
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d species, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d species %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
		if stats != wantStats {
			t.Fatalf("workers=%d stats %+v, want %+v", workers, stats, wantStats)
		}
	}
}

// TestRunProviderByteIdentical pins the provider contract: a reaction
// scored through a shared binding.Cache — cold, warm, or with its rows
// evicted before every reaction — produces a pool byte-identical to the
// default Direct provider at every worker count.
func TestRunProviderByteIdentical(t *testing.T) {
	input := buildPool(64)
	pr := []Primer{
		{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.02},
	}
	base := params(64 * 100 * 40)
	ref, refStats, err := Run(input, pr, base)
	if err != nil {
		t.Fatal(err)
	}
	want := poolFingerprint(ref)
	providers := map[string]*binding.Cache{
		"cache":   binding.NewCache(0),
		"evicted": binding.NewCache(0), // rows pushed out before every reaction
	}
	// evictRows begins reactions over enough fresh pool identities to
	// push every row the input's reactions built out of the cache.
	evictRows := func(c *binding.Cache) {
		for k := 0; k < 64; k++ {
			c.Begin([]binding.Pair{{Fwd: fwdP, Rev: revP}}, 0, input.Clone())
		}
	}
	for name, prov := range providers {
		for _, workers := range []int{1, 4, -1} {
			for pass := 0; pass < 2; pass++ { // cold then warm
				if name == "evicted" {
					evictRows(prov)
				}
				ps := base
				ps.Provider = prov
				ps.Workers = workers
				out, stats, err := Run(input, pr, ps)
				if err != nil {
					t.Fatal(err)
				}
				got := poolFingerprint(out)
				if len(got) != len(want) {
					t.Fatalf("%s workers=%d pass=%d: %d species, want %d",
						name, workers, pass, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s workers=%d pass=%d species %d = %q, want %q",
							name, workers, pass, i, got[i], want[i])
					}
				}
				if stats != refStats {
					t.Fatalf("%s workers=%d pass=%d stats %+v, want %+v",
						name, workers, pass, stats, refStats)
				}
			}
		}
	}
	if st := providers["cache"].Stats(); st.RowHits == 0 {
		t.Error("warm cached reactions recorded no row hits")
	}
	if st := providers["evicted"].Stats(); st.Evictions == 0 || st.RowHits != 0 {
		t.Errorf("evicted cache: %d evictions, %d row hits; want evictions and no hits", st.Evictions, st.RowHits)
	}
}

// BenchmarkPCRRun measures a full reaction over a mid-size pool, the
// unit of work of every simulated wet access.
func BenchmarkPCRRun(b *testing.B) {
	input := buildPool(256)
	pr := []Primer{
		{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.02},
	}
	ps := params(256 * 100 * 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(input, pr, ps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCRRunCached is BenchmarkPCRRun through a warm shared
// binding cache: after the first iteration every alignment is a hit,
// the cross-reaction regime of a range read.
func BenchmarkPCRRunCached(b *testing.B) {
	input := buildPool(256)
	pr := []Primer{
		{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.02},
	}
	ps := params(256 * 100 * 40)
	ps.Provider = binding.NewCache(0)
	if _, _, err := Run(input, pr, ps); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(input, pr, ps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunColdPrimer is a block read's reaction against a warm
// cache: each iteration pairs a never-seen elongated primer with the
// main primer, so the elongated pair misses its row on every species
// while the main pair's row hits. The direct sub-benchmark runs the
// same reactions without a cache; a cold primer should cost no more
// through the cache than without it.
func BenchmarkRunColdPrimer(b *testing.B) {
	input := buildPool(256)
	ps := params(256 * 100 * 40)
	primersFor := func(i int) []Primer {
		idx := make([]byte, 10)
		for j := range idx {
			idx[j] = "ACGT"[(i>>(2*j))&3]
		}
		return []Primer{
			{Fwd: elongated(string(idx)), Rev: revP, Conc: 1},
			{Fwd: fwdP, Rev: revP, Conc: 0.02},
		}
	}
	run := func(b *testing.B, prov binding.Provider) {
		ps := ps
		ps.Provider = prov
		if _, _, err := Run(input, primersFor(0), ps); err != nil { // warm the main pair's row
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := Run(input, primersFor(1+i), ps); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cache", func(b *testing.B) { run(b, binding.NewCache(0)) })
	b.Run("direct", func(b *testing.B) { run(b, binding.Direct{}) })
}

// --- the full-scan reference and the differential against it ----------

// runReference is the full-scan reaction Run must reproduce byte for
// byte: every cycle it scores every species of the pool, and every
// (species, primer) slot is aligned through the provider — no live
// list, no nested-primer pruning. It is the oracle of the differential
// tests below, the way the Banded* kernels serve the bit-parallel ones.
func runReference(input *pool.Pool, primers []Primer, params Params) (*pool.Pool, Stats, error) {
	if err := params.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if len(primers) == 0 {
		return nil, Stats{}, fmt.Errorf("pcr: no primers")
	}
	maxConc := 0.0
	for i, pr := range primers {
		if len(pr.Fwd) == 0 || len(pr.Rev) == 0 {
			return nil, Stats{}, fmt.Errorf("pcr: primer %d has empty sequence", i)
		}
		if pr.Conc <= 0 {
			return nil, Stats{}, fmt.Errorf("pcr: primer %d has non-positive concentration", i)
		}
		if pr.Conc > maxConc {
			maxConc = pr.Conc
		}
	}

	out := input.Clone()
	stats := Stats{Cycles: params.Cycles, InitialTotal: out.Total()}

	// Dense per-reaction binding table: species index x primer index,
	// species-major. Species are appended, never removed, so indexes
	// are stable; the table grows with the pool, gated on the pool's
	// revision (pool.Version is purely a growth signal here — a caching
	// provider's rows are addressed by the input pool's identity, and
	// append-only pools never invalidate them).
	// During the parallel scoring phase each chunk touches only its own
	// species' rows, so writes never race.
	np := len(primers)
	var cache []binding.Binding
	// prodIdx memoizes, per (species, primer) slot, 1 + the pool index
	// of the slot's misprime product once the apply phase has created
	// it (0 = no product yet, so freshly zeroed growth is correct):
	// re-deriving the same sequence every cycle dominated the warm
	// profile once bindings were cached.
	var prodIdx []int32
	prov := params.Provider
	if prov == nil {
		prov = binding.Direct{}
	}
	pairs := make([]binding.Pair, np)
	for i, pr := range primers {
		pairs[i] = binding.Pair{Fwd: pr.Fwd, Rev: pr.Rev}
	}
	rx := prov.Begin(pairs, params.MaxBindDist, input)

	// negligible products below this absolute abundance are dropped to
	// bound the species count.
	negligible := params.Capacity * 1e-12
	// maxProb bounds any primer's binding probability; species whose
	// whole-cycle growth falls below negligible are skipped before any
	// alignment work. Floating-point multiplication is monotone, so the
	// bound is exact: a skipped species could never have produced a
	// non-negligible delta.
	maxProb := params.Efficiency * maxConc

	workers := parallel.Resolve(params.Workers)
	nchunks := 1
	if workers > 1 {
		nchunks = 4 * workers
	}
	chunkDeltas := make([][]delta, nchunks)
	chunkProds := make([][]product, nchunks)
	expPen := make([]float64, params.MaxBindDist+1)

	for c := 0; c < params.Cycles; c++ {
		total := out.Total()
		sat := 1 - total/params.Capacity
		if sat <= 0 {
			break
		}
		pen := params.penalty(params.annealTemp(c))
		n := out.Len()
		// Grow the reaction tables with doubling: products append a few
		// species every cycle, and regrowing exactly-sized tables each
		// cycle was measurable zeroing + copy traffic. Fresh capacity
		// is zeroed by allocation, which is the Unknown state for both
		// tables.
		if need := n * np; len(cache) < need {
			if cap(cache) >= need {
				cache, prodIdx = cache[:need], prodIdx[:need]
			} else {
				nc := make([]binding.Binding, need, 2*need)
				copy(nc, cache)
				cache = nc
				ni := make([]int32, need, 2*need)
				copy(ni, prodIdx)
				prodIdx = ni
			}
		}
		// The mismatch penalty enters only as exp(-pen*d) for the few
		// distances within the budget; tabulating it per cycle replaces
		// a math.Exp per (species, primer) with an indexed load.
		for d := 0; d <= params.MaxBindDist; d++ {
			expPen[d] = math.Exp(-pen * float64(d))
		}
		// score emits the growth deltas of species [lo, hi) in order.
		score := func(lo, hi int, deltas []delta, prods []product) ([]delta, []product) {
			for si := lo; si < hi; si++ {
				ab := out.Abundance(si)
				if ab <= 0 {
					continue
				}
				if ab*maxProb*sat < negligible {
					continue
				}
				tmpl := out.PackedSeq(si) // zero-copy arena view
				row := cache[si*np : (si+1)*np]
				for pi := range primers {
					b := &row[pi]
					if b.State == binding.Unknown {
						*b = rx.Bind(pi, si, tmpl)
					}
					if b.State == binding.None {
						continue
					}
					prob := params.Efficiency * primers[pi].Conc * expPen[b.Dist]
					amount := ab * prob * sat
					if amount < negligible {
						continue
					}
					if b.Dist == 0 {
						deltas = append(deltas, delta{species: int32(si), prod: -1, amount: amount})
						continue
					}
					// Misprime: product carries the primer as its prefix
					// and the template's remainder (index overwritten,
					// payload kept). Once the product exists its index
					// is memoized and growth goes straight to it.
					slot := si*np + pi
					if idx := prodIdx[slot]; idx != 0 {
						deltas = append(deltas, delta{species: idx - 1, prod: -1, amount: amount})
						continue
					}
					fwd := primers[pi].Fwd
					tn := tmpl.Len()
					seq := make(dna.Seq, 0, len(fwd)+tn-int(b.End))
					seq = append(seq, fwd...)
					seq = tmpl.AppendRange(seq, int(b.End), tn)
					meta := out.MetaAt(si)
					meta.Misprimed = true
					prods = append(prods, product{origin: slot, seq: seq, meta: meta})
					deltas = append(deltas, delta{species: -1, prod: int32(len(prods) - 1), amount: amount})
				}
			}
			return deltas, prods
		}
		chunk := (n + nchunks - 1) / nchunks
		if chunk < 1 {
			chunk = 1
		}
		parallel.Run(workers, nchunks, func(ci int) error {
			lo := ci * chunk
			if lo > n {
				lo = n
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			chunkDeltas[ci], chunkProds[ci] = score(lo, hi, chunkDeltas[ci][:0], chunkProds[ci][:0])
			return nil
		})
		// Apply phase: serial, in species order (chunks are contiguous
		// and ordered), identical to the historical single-loop apply:
		// boosting a memoized product index mutates exactly the species
		// that re-adding its sequence would have found.
		for ci, deltas := range chunkDeltas {
			prods := chunkProds[ci]
			for _, d := range deltas {
				if d.species >= 0 {
					out.Boost(int(d.species), d.amount)
					continue
				}
				p := &prods[d.prod]
				before := out.Len()
				if idx := out.AddIndex(p.seq, d.amount, p.meta); idx >= 0 {
					prodIdx[p.origin] = int32(idx) + 1
				}
				if out.Len() > before {
					stats.MisprimeSpecies++
				}
			}
		}
	}

	stats.FinalTotal = out.Total()
	for i, nOut := 0, out.Len(); i < nOut; i++ {
		if out.MetaAt(i).Misprimed {
			stats.MisprimedMass += out.Abundance(i)
		}
	}
	return out, stats, nil
}

// editSeq applies k random edits (substitution, insertion or deletion)
// to s. Edits may land anywhere, including the join between a primer
// and its elongation.
func editSeq(r *rng.Source, s dna.Seq, k int) dna.Seq {
	out := s.Clone()
	for i := 0; i < k; i++ {
		pos := r.Intn(len(out) + 1)
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

func randomSeq(r *rng.Source, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(4))
	}
	return s
}

// diffWorkload is one seeded reaction input: a pool of strands whose
// forward ends lie 0-7 edits from the primers, a few unrelated and
// zero-abundance species, and clean twins of substituted strands (the
// misprime product of the substituted strand collides with its twin),
// plus primer sets covering every nesting shape.
type diffWorkload struct {
	input *pool.Pool
	sets  map[string][]Primer
}

func newDiffWorkload(seed uint64) diffWorkload {
	r := rng.New(seed)
	fwd, rev, rev2 := randomSeq(r, 20), randomSeq(r, 20), randomSeq(r, 20)
	ext := randomSeq(r, 12)
	e1 := dna.Concat(fwd, ext[:6])
	e2 := dna.Concat(fwd, ext)
	other := randomSeq(r, 26)
	sets := map[string][]Primer{
		"nested":    {{Fwd: e1, Rev: rev, Conc: 1}, {Fwd: fwd, Rev: rev, Conc: 0.02}},
		"chain":     {{Fwd: e2, Rev: rev, Conc: 0.5}, {Fwd: fwd, Rev: rev, Conc: 0.05}, {Fwd: e1, Rev: rev, Conc: 0.5}},
		"disjoint":  {{Fwd: e1, Rev: rev, Conc: 1}, {Fwd: other, Rev: rev, Conc: 0.3}},
		"same-fwd":  {{Fwd: fwd, Rev: rev, Conc: 1}, {Fwd: fwd, Rev: rev2, Conc: 0.4}},
		"other-rev": {{Fwd: e1, Rev: rev2, Conc: 1}, {Fwd: fwd, Rev: rev, Conc: 0.1}},
	}
	heads := []dna.Seq{fwd, e1, e2, other}
	p := pool.New()
	for i := 0; i < 48; i++ {
		head := heads[r.Intn(len(heads))]
		tail := rev
		if r.Intn(4) == 0 {
			tail = rev2
		}
		payload := randomSeq(r, 60+r.Intn(20))
		meta := pool.Meta{Partition: "p", Block: i, OriginBlock: i}
		ab := 50 + float64(r.Intn(100))
		switch {
		case i%8 == 0: // unrelated
			p.Add(randomSeq(r, 110), ab, meta)
		case i%8 == 1: // substituted head plus its clean twin
			sub := head.Clone()
			for k := 1 + r.Intn(3); k > 0; k-- {
				j := r.Intn(len(sub))
				sub[j] = dna.Base((int(sub[j]) + 1) % 4)
			}
			p.Add(dna.Concat(sub, payload, tail), ab, meta)
			p.Add(dna.Concat(head, payload, tail), ab, meta)
		default:
			p.Add(dna.Concat(editSeq(r, head, r.Intn(8)), payload, editSeq(r, tail, r.Intn(3))), ab, meta)
		}
	}
	// Zero-abundance species keep their place in the pool.
	for i := 0; i < p.Len(); i += 7 {
		p.SetAbundance(i, 0)
	}
	return diffWorkload{input: p, sets: sets}
}

// TestRunMatchesReference is the differential behind Run's live list
// and nested-primer pruning: across seeded pools, every primer-set
// shape, every budget 0-7 (7 exceeds AlignSlack and switches pruning
// off), serial and parallel scoring and both providers, Run's pool
// digest and Stats equal the full-scan reference's.
func TestRunMatchesReference(t *testing.T) {
	collisions := 0
	for seed := uint64(1); seed <= 4; seed++ {
		w := newDiffWorkload(seed)
		collisions += countCollisions(w)
		cache := binding.NewCache(0)
		for name, primers := range w.sets {
			for maxDist := 0; maxDist <= 7; maxDist++ {
				ps := params(w.input.Total() * 30)
				ps.MaxBindDist = maxDist
				ref, refStats, err := runReference(w.input, primers, ps)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.Digest()
				for _, workers := range []int{1, 4} {
					for _, prov := range []binding.Provider{binding.Direct{}, cache} {
						ps := ps
						ps.Workers, ps.Provider = workers, prov
						out, stats, err := Run(w.input, primers, ps)
						if err != nil {
							t.Fatal(err)
						}
						if out.Digest() != want || stats != refStats {
							t.Fatalf("seed %d %s maxDist %d workers %d %T: digest or stats differ\n got %+v\nwant %+v",
								seed, name, maxDist, workers, prov, stats, refStats)
						}
					}
				}
			}
		}
	}
	if collisions == 0 {
		t.Error("no misprime product collides with an input species; the workload misses that case")
	}
}

// countCollisions counts (species, pair) misprimes of the nested set
// whose product sequence is already an input species.
func countCollisions(w diffWorkload) int {
	primers := w.sets["nested"]
	pairs := make([]binding.Pair, len(primers))
	for i, pr := range primers {
		pairs[i] = binding.Pair{Fwd: pr.Fwd, Rev: pr.Rev}
	}
	in := w.input
	seqs := make(map[string]bool, in.Len())
	for i := 0; i < in.Len(); i++ {
		seqs[in.SeqAt(i).String()] = true
	}
	rx := binding.Direct{}.Begin(pairs, DefaultParams().MaxBindDist, in)
	n := 0
	for si := 0; si < in.Len(); si++ {
		tmpl := in.PackedSeq(si)
		for pi, pr := range primers {
			b := rx.Bind(pi, si, tmpl)
			if b.State != binding.OK || b.Dist == 0 {
				continue
			}
			prod := tmpl.AppendRange(pr.Fwd.Clone(), int(b.End), tmpl.Len())
			if seqs[prod.String()] {
				n++
			}
		}
	}
	return n
}

// countingProvider wraps Direct, records every answer, and fails the
// test when a pair is asked about a species that a pair nesting it
// already answered None for.
type countingProvider struct {
	t     *testing.T
	mu    sync.Mutex
	calls []int // Bind calls per pair
	none  map[[2]int]bool
}

func (c *countingProvider) Begin(pairs []binding.Pair, maxDist int, input *pool.Pool) binding.Reaction {
	c.calls = make([]int, len(pairs))
	c.none = make(map[[2]int]bool)
	return &countingReaction{c: c, pairs: pairs, maxDist: maxDist, rx: binding.Direct{}.Begin(pairs, maxDist, input)}
}

type countingReaction struct {
	c       *countingProvider
	pairs   []binding.Pair
	maxDist int
	rx      binding.Reaction
}

func (r *countingReaction) Bind(pi, si int, tmpl dna.Packed) binding.Binding {
	b := r.rx.Bind(pi, si, tmpl)
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls[pi]++
	for pj, parent := range r.pairs {
		if binding.Nests(parent, r.pairs[pi], r.maxDist) && c.none[[2]int{pj, si}] {
			c.t.Errorf("pair %d asked about species %d after nesting pair %d answered None", pi, si, pj)
		}
	}
	if b.State == binding.None {
		c.none[[2]int{pi, si}] = true
	}
	return b
}

// TestNestedPairSkipsParentNone pins the pruning itself: an elongated
// pair is never aligned against a species its partition pair cannot
// bind, so it is asked far less often than the partition pair. Past
// AlignSlack the pruning is off and both pairs see every species.
func TestNestedPairSkipsParentNone(t *testing.T) {
	w := newDiffWorkload(7)
	for _, name := range []string{"nested", "chain"} {
		for _, workers := range []int{1, 4} {
			for _, maxDist := range []int{DefaultParams().MaxBindDist, binding.AlignSlack + 1} {
				prov := &countingProvider{t: t}
				ps := params(w.input.Total() * 30)
				ps.Workers, ps.Provider, ps.MaxBindDist = workers, prov, maxDist
				if _, _, err := Run(w.input, w.sets[name], ps); err != nil {
					t.Fatal(err)
				}
				inner, outer := prov.calls[0], prov.calls[1]
				pruned := maxDist <= binding.AlignSlack
				if pruned && inner >= outer || !pruned && inner != outer {
					t.Errorf("%s workers %d maxDist %d: elongated pair asked %d times, partition pair %d",
						name, workers, maxDist, inner, outer)
				}
			}
		}
	}
}
