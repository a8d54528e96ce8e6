// Package pcr simulates the polymerase chain reaction on a DNA pool.
//
// The simulator is mechanistic rather than curve-fit: each cycle, every
// primer may bind every species with a probability that decays
// exponentially with the edit distance between the primer and the
// species' prefix, scaled by annealing stringency (temperature) and
// reagent saturation. Three consequences of this mechanism reproduce the
// paper's observations without hard-coding them:
//
//   - Perfectly matching species double (nearly) every cycle until the
//     reaction saturates (Section 2.1.4).
//   - A primer that binds a near-matching template with d > 0 produces a
//     product whose prefix is the primer itself: the index is overwritten
//     while the payload is retained. The product then amplifies at full
//     efficiency, which is exactly the mispriming dynamic of Section 8.1.
//   - Touchdown PCR (Section 6.5) raises the annealing temperature for
//     the first cycles, increasing stringency when mispriming would
//     compound the most.
package pcr

import (
	"fmt"
	"math"
	"sort"

	"dnastore/internal/binding"
	"dnastore/internal/dna"
	"dnastore/internal/parallel"
	"dnastore/internal/pool"
)

// Primer is one primer pair participating in a reaction. Conc is the
// relative primer concentration; a multiplexed reaction splits the total
// concentration across pairs (Section 6.5), and residual primers left
// over from a previous reaction are modeled as an extra pair with a
// small Conc.
type Primer struct {
	Fwd  dna.Seq
	Rev  dna.Seq
	Conc float64
}

// Params are the reaction parameters.
type Params struct {
	Cycles int // total thermal cycles

	// Efficiency is the per-cycle duplication probability of a perfectly
	// matched, unsaturated template (~0.95 for a healthy reaction).
	Efficiency float64

	// AnnealTemp is the steady annealing temperature in Celsius.
	// TouchdownStart > AnnealTemp enables touchdown: the first
	// TouchdownCycles cycles ramp from TouchdownStart down by 1 degree
	// per cycle (Section 6.5's protocol: 65C down-ramp for 10 cycles,
	// then 55C for the remainder).
	AnnealTemp      float64
	TouchdownStart  float64
	TouchdownCycles int

	// MismatchPenalty is the exponential penalty per unit of edit
	// distance at ReferenceTemp; TempSlope adds penalty per degree above
	// ReferenceTemp. Binding probability for distance d at temperature T:
	//
	//	P = Efficiency * Conc * exp(-(MismatchPenalty + TempSlope*(T-ReferenceTemp)) * d)
	MismatchPenalty float64
	TempSlope       float64
	ReferenceTemp   float64

	// Capacity is the reagent-limited total molecule count: per-cycle
	// growth scales by (1 - total/Capacity), producing the plateau that
	// every real PCR exhibits.
	Capacity float64

	// MaxBindDist bounds the edit distance at which binding is
	// considered at all; beyond it the probability is treated as zero.
	MaxBindDist int

	// Workers fans the per-cycle scoring loop (binding alignments and
	// growth computation) across a worker pool. Growth deltas are
	// emitted in deterministic species order and applied serially, so
	// the amplified pool is byte-identical at any worker count. 0 means
	// 1 (serial); negative means GOMAXPROCS.
	Workers int

	// Provider supplies primer ⇄ template binding alignments. nil means
	// binding.Direct: compile the pairs and align each (species,
	// primer) the reaction asks about once per reaction. A shared
	// binding.Cache amortizes both the alignments and the pattern
	// compilation across reactions over mostly-unchanged pools; since
	// bindings are pure functions of their sequences, the amplified
	// pool is byte-identical with any provider.
	Provider binding.Provider
}

// DefaultParams returns parameters calibrated to the paper's wetlab
// protocol (touchdown 65->55 over 10 cycles plus 18 cycles at 55).
func DefaultParams() Params {
	return Params{
		Cycles:          28,
		Efficiency:      0.95,
		AnnealTemp:      55,
		TouchdownStart:  65,
		TouchdownCycles: 10,
		MismatchPenalty: 0.78,
		TempSlope:       0.08,
		ReferenceTemp:   55,
		Capacity:        0, // must be set relative to the input pool
		MaxBindDist:     5,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Cycles <= 0 {
		return fmt.Errorf("pcr: cycles %d", p.Cycles)
	}
	if p.Efficiency <= 0 || p.Efficiency > 1 {
		return fmt.Errorf("pcr: efficiency %v outside (0, 1]", p.Efficiency)
	}
	if p.Capacity <= 0 {
		return fmt.Errorf("pcr: capacity must be positive (set it relative to the input pool)")
	}
	if p.MaxBindDist < 0 {
		return fmt.Errorf("pcr: negative MaxBindDist")
	}
	return nil
}

// annealTemp returns the annealing temperature for 0-based cycle c.
func (p Params) annealTemp(c int) float64 {
	if p.TouchdownStart > p.AnnealTemp && c < p.TouchdownCycles {
		t := p.TouchdownStart - float64(c)
		if t < p.AnnealTemp {
			t = p.AnnealTemp
		}
		return t
	}
	return p.AnnealTemp
}

// penalty returns the per-edit-unit penalty at temperature t.
func (p Params) penalty(t float64) float64 {
	pen := p.MismatchPenalty + p.TempSlope*(t-p.ReferenceTemp)
	if pen < 0 {
		pen = 0
	}
	return pen
}

// Stats summarizes a reaction.
type Stats struct {
	Cycles          int
	InitialTotal    float64
	FinalTotal      float64
	MisprimeSpecies int     // distinct misprimed product species created
	MisprimedMass   float64 // total abundance of misprimed products at the end
}

// Gain returns the reaction's mass amplification: final over initial
// total abundance. A healthy reaction enriches its target well past 1;
// a gain at (or near) 1 means nothing amplified — the observable
// signature of a failed reaction. 0 when the input pool was empty.
func (s Stats) Gain() float64 {
	if s.InitialTotal <= 0 {
		return 0
	}
	return s.FinalTotal / s.InitialTotal
}

// The binding computation itself — states, compiled pairs, the
// alignment — lives in package binding; reactions consult a
// binding.Provider for it. What stays here is the per-reaction dense
// table: species index x primer index slots that remember each
// provider answer so every (species, primer) pair is asked at most
// once per reaction.

// suffixDistance returns the edit distance between pattern and the
// best-matching suffix of text (used by tests). Aligning against the
// empty suffix always costs exactly len(pattern), so that budget is
// tight and keeps the kernel banded — an unbounded budget here would
// defeat the banding on every call.
func suffixDistance(pattern, text dna.Seq) int {
	d, _ := dna.SuffixAlignmentAtMost(pattern, text, len(pattern))
	return d
}

// delta is one unit of per-cycle growth, kept pointer-free and 16
// bytes because hundreds of thousands are staged per reaction (every
// growing species, every cycle): species >= 0 boosts an existing
// species directly, otherwise prod indexes the chunk's staged products.
type delta struct {
	species int32 // existing species receiving growth, or -1
	prod    int32 // index into the chunk's products, or -1
	amount  float64
}

// product is a new misprimed product staged by the scoring phase.
// origin records which (species, primer) slot produced it, so the
// apply phase can memoize the product's pool index and later cycles
// boost it directly instead of rebuilding and re-hashing the same
// sequence 28 times per reaction.
type product struct {
	origin int // producing table slot (si*np+pi)
	seq    dna.Seq
	meta   pool.Meta
}

// Run executes the reaction on a copy of the input pool and returns the
// amplified pool. The input pool is not modified.
//
// Each cycle has two phases. The scoring phase is pure: it scores the
// reaction's live species against the frozen cycle-start pool and
// emits growth deltas; with params.Workers > 1 it fans out across
// contiguous chunks of the live list whose delta buffers are
// concatenated in species order, so the emitted sequence is identical
// to the serial one. The apply phase then mutates the pool serially in
// that order.
//
// A reaction pays only for the species its primers can bind. A species
// is aligned against each pair once, on its first scoring pass; if no
// pair binds it, it leaves the live list for good, since no later cycle
// can change those verdicts. Species skipped as zero-abundance or
// negligible stay live (their bindings are still unknown), and each
// cycle's new products join it. A pair nested under another
// (binding.Nests: an elongated primer over its partition primer) is
// not aligned where the outer pair found no binding: the verdict is
// None by construction. Dropped species and pruned verdicts never
// produce a delta, so the amplified pool is byte-identical to scoring
// every (species, primer) pair every cycle.
func Run(input *pool.Pool, primers []Primer, params Params) (*pool.Pool, Stats, error) {
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
	// are stable and the table grows with the pool. During the
	// parallel scoring phase each chunk touches only its own species'
	// rows, so writes never race.
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
	outer, order := nesting(pairs, params.MaxBindDist)

	// negligible products below this absolute abundance are dropped to
	// bound the species count.
	negligible := params.Capacity * 1e-12
	// maxProb bounds any primer's binding probability; species whose
	// whole-cycle growth falls below negligible are skipped before any
	// alignment work. Floating-point multiplication is monotone, so the
	// bound is exact: a skipped species could never have produced a
	// non-negligible delta.
	maxProb := params.Efficiency * maxConc

	// live lists, ascending, the species some pair may still bind.
	live := make([]int32, out.Len())
	for i := range live {
		live[i] = int32(i)
	}

	workers := parallel.Resolve(params.Workers)
	nchunks := 1
	if workers > 1 {
		nchunks = 4 * workers
	}
	chunkDeltas := make([][]delta, nchunks)
	chunkProds := make([][]product, nchunks)
	chunkKept := make([]int, nchunks)
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
		// score emits the growth deltas of the species in ids, in order,
		// and compacts ids in place to the species that stay live,
		// returning how many did.
		score := func(ids []int32, deltas []delta, prods []product) (int, []delta, []product) {
			kept := 0
			for _, id := range ids {
				si := int(id)
				ab := out.Abundance(si)
				if ab <= 0 || ab*maxProb*sat < negligible {
					ids[kept] = id
					kept++
					continue
				}
				tmpl := out.PackedSeq(si) // zero-copy arena view
				row := cache[si*np : (si+1)*np]
				for _, pi := range order {
					b := &row[pi]
					if b.State != binding.Unknown {
						continue
					}
					if o := outer[pi]; o >= 0 && row[o].State == binding.None {
						b.State = binding.None
						continue
					}
					*b = rx.Bind(pi, si, tmpl)
				}
				bound := false
				for pi := range primers {
					b := &row[pi]
					if b.State == binding.None {
						continue
					}
					bound = true
					prob := params.Efficiency * primers[pi].Conc * expPen[b.Dist]
					amount := ab * prob * sat
					if amount < negligible {
						continue
					}
					if b.Dist == 0 {
						deltas = append(deltas, delta{species: id, prod: -1, amount: amount})
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
				if bound {
					ids[kept] = id
					kept++
				}
			}
			return kept, deltas, prods
		}
		nl := len(live)
		chunk := (nl + nchunks - 1) / nchunks
		if chunk < 1 {
			chunk = 1
		}
		bounds := func(ci int) (lo, hi int) {
			return min(ci*chunk, nl), min((ci+1)*chunk, nl)
		}
		parallel.Run(workers, nchunks, func(ci int) error {
			lo, hi := bounds(ci)
			chunkKept[ci], chunkDeltas[ci], chunkProds[ci] = score(live[lo:hi], chunkDeltas[ci][:0], chunkProds[ci][:0])
			return nil
		})
		kept := 0
		for ci := range chunkKept {
			lo, _ := bounds(ci)
			kept += copy(live[kept:], live[lo:lo+chunkKept[ci]])
		}
		live = live[:kept]
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
				if idx := out.AddIndex(p.seq, d.amount, p.meta); idx >= 0 {
					prodIdx[p.origin] = int32(idx) + 1
				}
			}
		}
		// New products join the live list; their indexes exceed every
		// existing one, so it stays ascending.
		for i := n; i < out.Len(); i++ {
			live = append(live, int32(i))
		}
		stats.MisprimeSpecies += out.Len() - n
	}

	stats.FinalTotal = out.Total()
	for i, nOut := 0, out.Len(); i < nOut; i++ {
		if out.MetaAt(i).Misprimed {
			stats.MisprimedMass += out.Abundance(i)
		}
	}
	return out, stats, nil
}

// nesting returns, for each pair, the index of a pair nesting it
// (binding.Nests; the one with the longest forward primer, so chains
// prune at the tightest level) or -1, and an evaluation order in which
// every outer pair precedes the pairs it nests: ascending forward
// primer length.
func nesting(pairs []binding.Pair, maxDist int) (outer, order []int) {
	outer = make([]int, len(pairs))
	order = make([]int, len(pairs))
	for i, child := range pairs {
		outer[i] = -1
		order[i] = i
		for j, parent := range pairs {
			if binding.Nests(parent, child, maxDist) &&
				(outer[i] < 0 || len(parent.Fwd) > len(pairs[outer[i]].Fwd)) {
				outer[i] = j
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(pairs[order[a]].Fwd) < len(pairs[order[b]].Fwd)
	})
	return outer, order
}
