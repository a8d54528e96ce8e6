// Package binding computes and caches primer-pair ⇄ template binding
// alignments, the innermost work of every simulated PCR cycle.
//
// A binding is a pure function of (forward primer, reverse primer,
// template sequence, distance budget): whether the pair anneals within
// the budget, at what combined edit distance, and where the forward
// match ends on the template. Nothing else — not abundance, not cycle
// number, not temperature — enters the alignment, so a computed binding
// is an immutable fact that can be shared across reactions, partitions
// and concurrent readers. pcr.Run consults a Provider for these facts;
// the Direct provider recomputes them per reaction (the historical
// behavior), while Cache remembers them store-wide in lock-free,
// index-addressed rows per (primer pair, pool), so a range read over K
// blocks aligns each primer against the mostly-unchanged tube once
// instead of K times. A Bind the rows cannot answer aligns directly:
// one bit-parallel alignment costs less than hashing the template into
// a shared map would.
package binding

import (
	"encoding/binary"
	"sync"

	"dnastore/internal/dna"
	"dnastore/internal/pool"
)

// Binding-state values. A Reaction's Bind never returns Unknown; the
// zero value exists so callers can use it as the "not yet asked" marker
// in their own per-reaction tables.
const (
	Unknown uint8 = iota // not yet aligned
	None                 // aligned, no binding within the budget
	OK                   // aligned, binds with the recorded distance
)

// Binding is the outcome of aligning one primer pair against one
// template.
type Binding struct {
	Dist  int32 // combined forward+reverse edit distance
	End   int32 // template position where the forward primer's match ends
	State uint8
}

// Pair is one primer pair participating in a reaction.
type Pair struct {
	Fwd dna.Seq
	Rev dna.Seq
}

// Provider supplies binding alignments to PCR reactions.
// Implementations must be safe for concurrent use by many reactions.
type Provider interface {
	// Begin starts one reaction over the given primer pairs with the
	// given per-pair edit-distance budget and returns its binding view.
	// input is the reaction's template pool before amplification; a
	// caching provider may use its identity (pool.Version) to assemble
	// index-addressed rows, while Direct ignores it.
	Begin(pairs []Pair, maxDist int, input *pool.Pool) Reaction
}

// Reaction is one reaction's view of the binding facts. Bind is called
// at most once per (species, pair) per reaction — the reaction's own
// dense table memoizes the answer — but those calls fan out across the
// scoring workers, so implementations must be safe for concurrent use.
type Reaction interface {
	// Bind aligns pair pi against template, returning a Binding whose
	// State is None or OK (never Unknown). The template is a packed
	// view — typically pool.PackedSeq's zero-copy alias of the
	// reaction pool's arena — and only the primer-length prefix and
	// suffix are ever unpacked. si is the template's species index in
	// the reaction pool: indexes below the input pool's length at
	// Begin denote the input species in order (append-only pools
	// never reassign them, so they are stable addresses); higher
	// indexes are reaction-local products and carry no identity.
	Bind(pi, si int, template dna.Packed) Binding
}

// AlignSlack is how many extra template bases beyond the primer length
// the aligner may consume, accommodating indels.
const AlignSlack = 6

// compiledPair carries one primer pair's bit-parallel Eq tables, so the
// per-template alignments only stream template bases.
type compiledPair struct {
	fwd *dna.Pattern
	rev *dna.Pattern
}

// seqBufs recycles the small prefix/suffix unpack scratch across Bind
// calls and goroutines; a primer-length window is ~30 bases.
var seqBufs = sync.Pool{New: func() any { s := make(dna.Seq, 0, 128); return &s }}

// bindPacked aligns a compiled primer pair against a packed template
// view, unpacking only the forward window (primer length plus slack
// from the front) and the reverse window (from the back) — never the
// payload between them. Both alignments are bounded by the remaining
// distance budget.
func (cp compiledPair) bindPacked(template dna.Packed, maxDist int) Binding {
	n := template.Len()
	fn := cp.fwd.Len() + AlignSlack
	if fn > n {
		fn = n
	}
	sp := seqBufs.Get().(*dna.Seq)
	buf := template.AppendRange((*sp)[:0], 0, fn)
	dFwd, end, ok := cp.fwd.PrefixAlignmentAtMost(buf, maxDist)
	if !ok {
		*sp = buf[:0]
		seqBufs.Put(sp)
		return Binding{State: None}
	}
	rn := cp.rev.Len() + AlignSlack
	if rn > n {
		rn = n
	}
	buf = template.AppendRange(buf[:0], n-rn, n)
	dRev, ok := cp.rev.SuffixAlignmentAtMost(buf, maxDist-dFwd)
	*sp = buf[:0]
	seqBufs.Put(sp)
	if !ok {
		return Binding{State: None}
	}
	return Binding{Dist: int32(dFwd + dRev), End: int32(end), State: OK}
}

// Nests reports whether every template the child pair binds within
// maxDist is also bound by the parent pair, decidable from the primers
// alone: the parent's forward primer is a proper prefix of the child's
// (an elongated primer over its partition primer), the reverse primers
// are equal, and maxDist <= AlignSlack. A reaction that holds both
// pairs can then answer None for the child wherever the parent
// answered None, without aligning.
//
// Proof. Let the parent's forward primer be P (p bases) and the
// child's C = P·X (c > p bases), on a template of n bases.
//   - PrefixAlignmentAtMost returns the minimum edit distance between
//     the pattern and any prefix of its window, so a child OK means
//     some alignment of C to template[:e] costs dC <= maxDist, with
//     e <= min(c+AlignSlack, n).
//   - Restricting that alignment to P's rows aligns P to some
//     template[:e'] with e' <= e at cost d' <= dC. An edit distance is
//     at least the length difference, so e' <= p+d' <= p+maxDist <=
//     p+AlignSlack; and e' <= e <= n. The parent's window
//     template[:min(p+AlignSlack, n)] therefore holds that prefix, and
//     the parent's forward distance dP <= d' <= dC.
//   - The reverse window (rev length plus slack, from the back) is the
//     same for both pairs, and the reverse budget the parent gets,
//     maxDist-dP, is no smaller than the child's, maxDist-dC. The
//     child's reverse alignment therefore fits the parent's budget.
//
// So the child binding implies the parent binding; contrapositively a
// parent None implies a child None. The argument needs maxDist <=
// AlignSlack to keep the restricted prefix inside the parent's window,
// so beyond it Nests reports false.
func Nests(parent, child Pair, maxDist int) bool {
	return maxDist <= AlignSlack &&
		len(parent.Fwd) < len(child.Fwd) &&
		child.Fwd.HasPrefix(parent.Fwd) &&
		parent.Rev.Equal(child.Rev)
}

// Direct is the no-reuse provider: Begin compiles the pairs and every
// Bind aligns from scratch. It reproduces the historical per-reaction
// behavior exactly and is the default when no provider is configured.
type Direct struct{}

// Begin compiles the pairs for one reaction.
func (Direct) Begin(pairs []Pair, maxDist int, _ *pool.Pool) Reaction {
	return &directReaction{pairs: compilePairs(pairs), maxDist: maxDist}
}

type directReaction struct {
	pairs   []compiledPair
	maxDist int
}

func (r *directReaction) Bind(pi, _ int, template dna.Packed) Binding {
	return r.pairs[pi].bindPacked(template, r.maxDist)
}

// compilePairs builds the alignment tables for every pair.
func compilePairs(pairs []Pair) []compiledPair {
	out := make([]compiledPair, len(pairs))
	for i, p := range pairs {
		out[i] = compiledPair{fwd: dna.CompilePattern(p.Fwd), rev: dna.CompilePattern(p.Rev)}
	}
	return out
}

// appendPairKey appends the key of (pair, maxDist) to buf. Each packed
// field is preceded by its base count, so the key is unambiguous: two
// keys that compare equal byte for byte describe the same primers and
// budget, and a fixed-width pool id appended after it (Cache's row key)
// stays unambiguous too.
func appendPairKey(buf []byte, p Pair, maxDist int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Fwd)))
	buf = dna.AppendPacked(buf, p.Fwd)
	buf = binary.AppendUvarint(buf, uint64(len(p.Rev)))
	buf = dna.AppendPacked(buf, p.Rev)
	return binary.AppendUvarint(buf, uint64(maxDist))
}
