package blockstore

import (
	"errors"
	"fmt"

	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/parallel"
	"dnastore/internal/pcr"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/seqsim"
	"dnastore/internal/streamdecode"
	"dnastore/internal/update"
)

// This file is the one read pipeline every access runs through: plain
// content reads, health reads, supervised retries, scrub probes and
// repair re-reads; single blocks, prefix-cover ranges and the whole
// partition. An access is a list of reactions, each one PCR with a
// primer elongated to a block or a cover prefix (or the main primer),
// and a list of output slots, one per data block it returns. It moves
// through four stages:
//
//   - plan, the serial front-end: under one hold of the partition mutex
//     it validates the targets, snapshots the unit versions the tables
//     say exist, charges every elongated primer the access will use
//     (each reaction's and each overflow-chain hop's) through the cache,
//     forks one noise source per reaction in order, and charges the
//     tube's wear. Everything stateful happens here, so the stages
//     after it are byte-identical at any worker count.
//   - wet, fanned across the workers: PCR, then sequencing and decoding
//     by one of two protocols. Streaming feeds reads through the
//     streamdecode engine chunk by chunk and stops (or, for multi-block
//     reactions, ejects finished and off-target molecules at the pore)
//     once every target's coverage floor is met, escalating the floor
//     of a target that still fails to decode. Batch sequences the
//     whole fault-truncated budget up front. A scaled read budget, a
//     repair re-read, streaming turned off, or a reaction that never
//     amplified (no molarity for adaptive sampling) takes the batch
//     protocol. Both draw the injected delivery ceiling before the
//     first read, so an aborted run is told apart from an early stop.
//   - classify: each slot's Health against its planned versions. A
//     block missing any version it was written with is not recovered,
//     whatever else decoded, so no read ever serves stale content.
//   - assemble: a recovered block's patches are resolved in order, its
//     overflow chain followed with one elongated-PCR hop per log block.
//
// A readMode steers the stages. Plain reads abort on the first
// unrecovered block and return its typed error; health reads leave
// every failure in its slot's report; supervised reads run the
// recovery engine (supervise.go) over a health read.

// wetMode selects a single-block reaction's sequencing protocol.
type wetMode int

const (
	// wetBatch sequences the full (fault-truncated) budget up front.
	wetBatch wetMode = iota
	// wetStream runs the floor-stopped streaming engine; the floor
	// tolerates the unit's erasure slack, optimizing for read cost.
	wetStream
	// wetStrict streams with zero slack: every expected slot must meet
	// the floor before the stream stops, so slot-level health evidence
	// (missing slots, per-slot coverage) is never forged by an early
	// stop. Health reads and scrub probes use it. Multi-block reactions
	// always stream at the slack floor.
	wetStrict
)

// readMode steers one access through the pipeline.
type readMode struct {
	wet    wetMode
	scale  float64 // read-budget multiplier; any value but 1 runs batch
	screen bool    // contamination quarantine of each reaction's aliquot
	health bool    // report failures per slot instead of aborting
	probe  bool    // diagnose only: no overflow chain charged or assembled
}

var (
	plainRead  = readMode{wet: wetStream, scale: 1}
	healthRead = readMode{wet: wetStrict, scale: 1, health: true}
)

// reaction is one PCR → sequence → decode of an access. The caller
// sets the primer and the span; plan fills in the rest.
type reaction struct {
	key    string  // primer-cache key; "" for the main primer
	fwd    dna.Seq // forward primer; nil when decoded is supplied
	lo, hi int     // span of blocks the primer amplifies
	single bool    // elongated to one block: DecodeBlock, strict streams
	main   bool    // whole partition: main primers only, no carryover
	// decoded is an externally produced decode (DecodeReads): the
	// reaction does no wet work.
	decoded *decode.BlockResult

	targets []int // written blocks of the span: the stream's floors
	units   int   // encoding units behind the read budget
	src     *rng.Source
	slots   [2]int // its output slots, [from, to)
}

// slot is one block an access returns, as the stages fill it in.
type slot struct {
	block   int
	src     *rng.Source // overflow-chain hops draw from it
	res     *decode.BlockResult
	info    wetInfo
	h       Health
	bv      *BlockVersions
	content []byte
}

// readPlan is an access after the front-end.
type readPlan struct {
	mode  readMode
	rxs   []reaction
	slots []slot
	exp   map[int][]int // versions that exist, per block the access may decode
}

// plan is the pipeline's serial front-end (see the file comment). A
// single-block reaction's slot is its block, even an overflow log
// block; a span's slots are its written data blocks. Spans with
// nothing written are dropped unplanned, and a whole-partition read
// with nothing written fails with ErrBlockNotFound. On error nothing
// has been charged.
func (p *Partition) plan(m readMode, rxs []reaction) (*readPlan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rx := range rxs {
		if rx.single && !p.written[rx.lo] {
			return nil, fmt.Errorf("%w: block %d", ErrBlockNotFound, rx.lo)
		}
	}
	logs := make(map[int]bool, len(p.overflow))
	for _, log := range p.overflow {
		logs[log] = true
	}
	pl := &readPlan{mode: m, exp: make(map[int][]int)}
	accesses := 0
	for _, rx := range rxs {
		from := len(pl.slots)
		for b := rx.lo; b <= rx.hi; b++ {
			if !p.written[b] {
				continue
			}
			rx.targets = append(rx.targets, b)
			rx.units += 1 + p.versions[b]
			pl.exp[b] = p.expected(b)
			if rx.single || !logs[b] {
				pl.slots = append(pl.slots, slot{block: b})
			}
		}
		if rx.units == 0 {
			pl.slots = pl.slots[:from]
			continue
		}
		if rx.key != "" {
			p.chargeElongated(rx.key)
		}
		if rx.fwd != nil {
			accesses++
		}
		if !m.probe {
			for _, s := range pl.slots[from:] {
				accesses += p.chargeOverflow(s.block, pl.exp)
			}
		}
		rx.src = p.noise.Fork()
		rx.slots = [2]int{from, len(pl.slots)}
		pl.rxs = append(pl.rxs, rx)
	}
	if len(rxs) == 1 && rxs[0].main && len(pl.rxs) == 0 {
		return nil, ErrBlockNotFound
	}
	// A range's covers chase their blocks' chains serially after the
	// fan, from one extra source; every other slot uses its reaction's.
	var shared *rng.Source
	if len(rxs) > 0 && !rxs[0].single && !rxs[0].main {
		shared = p.noise.Fork()
	}
	for _, rx := range pl.rxs {
		for j := rx.slots[0]; j < rx.slots[1]; j++ {
			pl.slots[j].src = rx.src
			if shared != nil {
				pl.slots[j].src = shared
			}
		}
	}
	p.store.wear(accesses)
	return pl, nil
}

// run carries a planned access through the wet, classify and assemble
// stages, filling its slots. A plain read returns the first
// unrecovered block's typed error, and the wet fan stops starting
// reactions once one has failed.
func (p *Partition) run(pl *readPlan) error {
	m := pl.mode
	// With several reactions fanned across the store's workers, each
	// reaction scores serially; a lone reaction gets the full budget.
	pcrWorkers := p.store.cfg.Workers
	if len(pl.rxs) > 1 && p.workers > 1 {
		pcrWorkers = 1
	}
	err := parallel.Run(p.workers, len(pl.rxs), func(i int) error {
		rx := &pl.rxs[i]
		results, info, err := p.wet(rx, pl.exp, pcrWorkers, m)
		if !rx.single {
			// A multi-block reaction's evidence is per block: a decode
			// that recovered nothing fails each slot on its own, and no
			// reaction-level fault class is pinned on a range's blocks.
			info = wetInfo{}
			if errors.Is(err, decode.ErrDecode) {
				err = nil
			}
		}
		for j := rx.slots[0]; j < rx.slots[1]; j++ {
			s := &pl.slots[j]
			s.res, s.info = results[s.block], info
			e := err
			if e == nil && s.res == nil {
				e = fmt.Errorf("%w: block %d not recovered", decode.ErrInsufficientCoverage, s.block)
			}
			s.h = p.classifyHealth(s.block, pl.exp[s.block], s.res, e, info)
			if !s.h.Recovered && !m.health {
				return s.h.Err
			}
		}
		return nil
	})
	if err != nil || m.probe {
		return err
	}
	for j := range pl.slots {
		s := &pl.slots[j]
		if !s.h.Recovered {
			continue
		}
		if s.bv, s.content, err = p.assemble(pl, s); err != nil {
			if !m.health {
				return err
			}
			s.h = p.classifyHealth(s.block, pl.exp[s.block], s.res, err, s.info)
		}
	}
	return nil
}

// planBlocks plans one fully elongated reaction per requested block,
// in request order.
func (p *Partition) planBlocks(blocks []int, m readMode) (*readPlan, error) {
	rxs := make([]reaction, len(blocks))
	for i, b := range blocks {
		if err := p.checkBlock(b); err != nil {
			return nil, err
		}
		fwd, _ := p.ElongatedPrimer(b)
		rxs[i] = reaction{key: blockPrimerKey(b), fwd: fwd, lo: b, hi: b, single: true}
	}
	return p.plan(m, rxs)
}

// planRange plans blocks lo..hi (inclusive) as the range's minimal
// prefix cover, one partially elongated reaction per cover prefix.
func (p *Partition) planRange(lo, hi int, m readMode) (*readPlan, error) {
	if err := p.checkBlock(lo); err != nil {
		return nil, err
	}
	if err := p.checkBlock(hi); err != nil {
		return nil, err
	}
	if lo > hi {
		return nil, fmt.Errorf("%w: inverted range [%d, %d]", ErrBlockRange, lo, hi)
	}
	covers, err := p.tree.Cover(lo, hi)
	if err != nil {
		return nil, err
	}
	rxs := make([]reaction, len(covers))
	for i, c := range covers {
		fwd := p.store.cfg.Geometry.ElongatedPrimer(p.fwd, c.Prefix)
		rxs[i] = reaction{key: coverPrimerKey(c.Prefix), fwd: fwd, lo: c.Lo, hi: c.Hi}
	}
	return p.plan(m, rxs)
}

// read runs a plan (err is the planning error) and returns the
// content and Health of its slots in order; content is nil where a
// health read failed.
func (p *Partition) read(pl *readPlan, err error) ([][]byte, []Health, error) {
	if err == nil {
		err = p.run(pl)
	}
	if err != nil {
		return nil, nil, err
	}
	content := make([][]byte, len(pl.slots))
	health := make([]Health, len(pl.slots))
	for i, s := range pl.slots {
		content[i], health[i] = s.content, s.h
	}
	return content, health, nil
}

// assemble resolves a recovered slot's patches in application order —
// following its overflow pointer through the log blocks, one
// elongated-PCR hop each, drawn from the slot's source — and applies
// them. Only planned versions are read, so a phantom unit conjured by
// misread strands is never applied, and a hop that misses a version of
// its log block fails the read with that block's typed error.
func (p *Partition) assemble(pl *readPlan, s *slot) (*BlockVersions, []byte, error) {
	bv := &BlockVersions{Data: s.res.Versions[0][:p.BlockSize()], Decode: *s.res}
	block, res := s.block, s.res
	for hop := 0; ; hop++ {
		next := -1
		for _, v := range pl.exp[block] {
			if hop == 0 && v == 0 {
				continue
			}
			if log, ok := update.IsOverflow(res.Versions[v]); ok {
				next = log
				continue
			}
			patch, err := update.Unmarshal(res.Versions[v])
			if err != nil {
				return nil, nil, err
			}
			bv.Patches = append(bv.Patches, patch)
		}
		if next < 0 {
			break
		}
		exp, planned := pl.exp[next]
		if !planned || hop == maxOverflowHops {
			return nil, nil, fmt.Errorf("%w: block %d overflow chain runs off its plan at block %d",
				ErrRSMarginExceeded, s.block, next)
		}
		// A log block's full slot set: three patches and a pointer.
		fwd, _ := p.ElongatedPrimer(next)
		rx := reaction{fwd: fwd, lo: next, hi: next, single: true, targets: []int{next},
			units: directUpdateSlots + 2, src: s.src}
		results, _, err := p.wet(&rx, pl.exp, p.store.cfg.Workers, plainRead)
		if res = results[next]; !servesExpected(res, exp) {
			return nil, nil, fmt.Errorf("blockstore: overflow chain: %w", p.healthOf(next, exp, res, err).Err)
		}
		block = next
	}
	content, err := update.ApplyAll(bv.Data, bv.Patches)
	if err != nil {
		return nil, nil, err
	}
	return bv, content, nil
}

// wetInfo is the operational evidence one wet reaction leaves behind,
// consumed by the supervised reads to classify failures: a PCR gain
// near 1 is a failed reaction, a truncated delivery ceiling is an
// aborted sequencing run, and a large foreign mass fraction (known
// only when the quarantine screen ran) is contamination. A streamed
// run may stop even earlier than its ceiling at the coverage floor;
// that early stop is adaptive, not a fault.
type wetInfo struct {
	gain        float64 // PCR mass amplification (final / initial)
	budget      int     // sequencing reads budgeted
	delivered   int     // sequencing reads actually delivered
	truncated   bool    // injected abort cut delivery below the budget
	quarantined int     // foreign species mass-zeroed by the screen
	foreignFrac float64 // fraction of amplified mass the screen removed
	covAvg      float64 // streamed single block: mean per-slot coverage
	entries     int     // streamed reads: pore entries (sequenced + ejected)
}

// wet runs one reaction — PCR (fault hooks included), then sequencing
// and decoding — and returns the decode of every block it recovered.
// It touches no shared front-end state, so reactions fan out freely.
func (p *Partition) wet(rx *reaction, exp map[int][]int, pcrWorkers int, m readMode) (map[int]*decode.BlockResult, wetInfo, error) {
	var info wetInfo
	if rx.fwd == nil {
		return map[int]*decode.BlockResult{rx.lo: rx.decoded}, info, nil
	}
	primers := []pcr.Primer{{Fwd: rx.fwd, Rev: p.rev, Conc: 1}}
	if c := p.store.cfg.CarryoverConc; c > 0 && !rx.main {
		primers = append(primers, pcr.Primer{Fwd: p.fwd, Rev: p.rev, Conc: c})
	}
	amplified, st, rep, err := p.store.runPCR(rx.src, primers, pcrWorkers, m.screen)
	if err != nil {
		return nil, info, err
	}
	info.gain = st.Gain()
	info.quarantined, info.foreignFrac = rep.quarantined, rep.foreignFrac
	info.budget = p.store.readBudget(rx.units)
	if m.scale != 1 {
		info.budget = max(1, int(float64(info.budget)*m.scale+0.5))
	}
	if m.wet != wetBatch && m.scale == 1 && p.streamingEnabled() && p.streamGainOK(info.gain) {
		results, run, err := p.stream(rx.src, amplified, rx.targets, exp, info.budget, rx.single && m.wet == wetStrict)
		info.delivered, info.truncated = run.sequenced, run.truncated
		info.covAvg, info.entries = run.covAvg, run.entries
		return results, info, err
	}
	info.delivered = p.store.faultBudget(rx.src, info.budget)
	info.truncated = info.delivered < info.budget
	reads, err := p.store.sequence(rx.src, amplified, info.delivered)
	if err != nil {
		return nil, info, err
	}
	seqs := make([]dna.Seq, len(reads))
	for i, rd := range reads {
		seqs[i] = rd.Seq
	}
	if !rx.single {
		results, err := p.pipeline.DecodeAll(seqs)
		return results, info, err
	}
	res, err := p.pipeline.DecodeBlock(seqs, rx.lo)
	return map[int]*decode.BlockResult{rx.lo: res}, info, err
}

// streamChunk is the most reads sequenced between engine updates and
// stop checks — small enough that overshoot past the coverage floor
// stays a fraction of the savings, large enough to amortize the
// engine's parallel stage fork-join.
const streamChunk = 256

// chunkSize scales the stop-check interval to the reaction's budget: a
// single-unit retrieval (375-read budget) gets several stop checks
// instead of one check and then a straight run to the budget, while
// big cover reactions keep the full amortizing chunk.
func chunkSize(budget int) int {
	c := budget / 4
	if c > streamChunk {
		c = streamChunk
	}
	if c < 32 {
		c = 32
	}
	return c
}

// ejectOverhead bounds a gated reaction's total pore entries (sequenced
// + ejected) at this multiple of its read budget. Ejection costs only
// the recognition prefix of a molecule, not a full read, but pore time
// is not free: without the bound a reaction whose remaining targets
// have decayed out of the tube would eject forever.
const ejectOverhead = 4

// streamingEnabled reports whether wet reads may use the streaming
// engine (see also streamGainOK).
func (p *Partition) streamingEnabled() bool {
	return p.store.cfg.Decode.Streaming
}

// streamGainOK gates streaming on the reaction's PCR gain when a fault
// injector is armed: a failed (or contaminant-choked) reaction never
// amplified, so its aliquot cannot be loaded for adaptive sampling and
// the read falls back to the batch protocol — whose gain and
// foreign-mass evidence the supervisors' classification was built on.
func (p *Partition) streamGainOK(gain float64) bool {
	return p.store.cfg.Faults == nil || gain > failedGainCeiling
}

// newStreamEngine builds one reaction's decode engine: assignment
// sharded per Config.Decode.StreamShards (0 = one shard per worker)
// and block finalization overlapped on a background pool. The engine
// fans out on the store's worker budget even when the reaction fan-out
// is 1 — its output is worker-invariant, so this only moves wall-clock.
func (p *Partition) newStreamEngine() (*streamdecode.Engine, error) {
	workers := p.store.workers
	eng, err := streamdecode.NewSharded(p.pipeline, 0, workers, p.store.cfg.Decode.StreamShards)
	if err != nil {
		return nil, err
	}
	eng.Overlap(parallel.NewPool(workers))
	return eng, nil
}

// closeStreamEngine drains the engine's background jobs and folds its
// per-stage accounting into the store's streaming totals.
func (p *Partition) closeStreamEngine(eng *streamdecode.Engine) {
	eng.Close()
	p.store.addStreamStats(eng.Stats())
}

// streamRun is the evidence a streamed reaction leaves for failure
// classification and health probes: reads actually sequenced, total
// pore entries consumed (sequenced + ejected — the stream's true
// effort), whether an injected abort truncated the delivery ceiling
// below the budget, and a single target's live mean per-slot coverage.
type streamRun struct {
	sequenced int
	entries   int
	truncated bool
	covAvg    float64
}

// stream sequences one reaction incrementally until every target's
// coverage floor (over its expected versions) is met, then decodes.
// The pore gate ejects molecules that cannot contribute — at
// 10^6-strand tube scale the carryover junk would otherwise consume
// the whole read budget before the floors filled. A target that still
// cannot serve every expected version is reopened — its floor doubles
// per round — and the stream continues, degrading toward the batch
// budget spent entirely on admissible molecules. A multi-block
// reaction none of whose targets decoded at the floor stops there. An
// injected sequencing abort truncates the delivery ceiling below the
// budget before the first draw, exactly as it truncates a batch run.
// The error is non-nil only when no target produced a decode.
func (p *Partition) stream(r *rng.Source, amplified *pool.Pool, targets []int, exp map[int][]int, budget int, strict bool) (map[int]*decode.BlockResult, streamRun, error) {
	var run streamRun
	ceiling := p.store.faultBudget(r, budget)
	run.truncated = ceiling < budget
	st, err := p.store.sampler.Stream(r, amplified)
	if err != nil {
		// Mirror the batch path's accounting: sequence() charges the
		// budget before sampling can fail.
		p.store.addCosts(func(c *Costs) { c.ReadsSequenced += ceiling })
		return nil, run, err
	}
	eng, err := p.newStreamEngine()
	if err != nil {
		return nil, run, err
	}
	defer p.closeStreamEngine(eng)
	if strict {
		eng.SetSlack(0)
	}
	for _, b := range targets {
		eng.Expect(b, exp[b])
	}
	gate := p.poreGate(amplified, eng)
	chunk := chunkSize(ceiling)
	maxEntries := ejectOverhead * ceiling
	more := func() bool { return st.Sequenced < ceiling && st.Sequenced+st.Ejected < maxEntries }
	batch := make([]dna.Seq, 0, chunk)
	fill := func() {
		for more() && !eng.AllDone() {
			batch = drawChunk(st, batch, chunk, ceiling, maxEntries, gate)
			eng.Add(batch)
		}
	}
	fill()
	results, derr := eng.Finalize()
	if results == nil {
		results = make(map[int]*decode.BlockResult)
	}
	for derr == nil || len(targets) == 1 {
		var bad []int
		for _, b := range targets {
			if !servesExpected(results[b], exp[b]) {
				bad = append(bad, b)
			}
		}
		if len(bad) == 0 || !more() {
			break
		}
		for _, b := range bad {
			eng.Reopen(b)
		}
		fill()
		// Re-finalize only the escalated targets: the others' results
		// are already good, and a full re-decode would repeat their
		// trace and RS work every round.
		for _, b := range bad {
			if res, _ := eng.FinalizeBlock(b); res != nil {
				results[b] = res
			} else {
				delete(results, b)
			}
		}
	}
	if len(results) > 0 {
		derr = nil
	}
	p.store.addCosts(func(c *Costs) {
		c.ReadsSequenced += st.Sequenced
		c.ReadsEjected += st.Ejected
	})
	run.sequenced = st.Sequenced
	run.entries = st.Sequenced + st.Ejected
	if len(targets) == 1 {
		run.covAvg, _ = eng.CoverageEstimate(targets[0])
	}
	return results, run, derr
}

// poreGate builds the adaptive-sampling admission decision for one
// reaction: each molecule's clean template is parsed once — by the
// same provisional-address parser the engine uses, never the
// simulator's ground-truth metadata — and the verdict memoized per
// species.
func (p *Partition) poreGate(amplified *pool.Pool, eng *streamdecode.Engine) func(int) bool {
	const (
		speciesFiltered    = -2 // fails the primer filter: junk to batch too
		speciesUnaddressed = -1 // keeps but does not parse: always sequence
	)
	blockOf := make(map[int]int)
	var tmpl dna.Seq
	return func(si int) bool {
		b, ok := blockOf[si]
		if !ok {
			tmpl = amplified.AppendSeq(tmpl[:0], si)
			switch pb, _, _, pok := p.pipeline.ProvisionalAddress(tmpl); {
			case pok:
				b = pb
			case p.pipeline.Keep(tmpl):
				b = speciesUnaddressed
			default:
				b = speciesFiltered
			}
			blockOf[si] = b
		}
		switch {
		case b == speciesFiltered:
			// The decoder's primer filter would discard this molecule's
			// reads unread (batch wastes budget sequencing them — that
			// is what WasteFactor provisions for); ejecting loses
			// nothing from either path's kept set.
			return false
		case b == speciesUnaddressed:
			// Keeps but has no parseable address (a decayed index, a
			// well-primed chimera): sequence it, conservatively.
			return true
		case !eng.IsTarget(b):
			return false // carryover outside this reaction's target set
		default:
			return !eng.Done(b)
		}
	}
}

// drawChunk fills batch with up to chunk sequenced reads, skipping
// ejections, until the sequencing budget or the pore-entry bound runs
// out — the latter is what terminates a gated stream whose admissible
// molecules have run dry.
func drawChunk(st *seqsim.Stream, batch []dna.Seq, chunk, budget, maxEntries int, gate func(int) bool) []dna.Seq {
	batch = batch[:0]
	for len(batch) < chunk && st.Sequenced < budget && st.Sequenced+st.Ejected < maxEntries {
		rd, ok := st.Next(gate)
		if !ok {
			continue
		}
		batch = append(batch, rd.Seq)
	}
	return batch
}

// servesExpected reports whether a decode result carries content for
// every expected version of its block.
func servesExpected(res *decode.BlockResult, expected []int) bool {
	if res == nil {
		return false
	}
	for _, v := range expected {
		if res.Versions[v] == nil {
			return false
		}
	}
	return true
}
