package blockstore

import (
	"errors"
	"fmt"
	"sort"

	"dnastore/internal/parallel"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// BlockPatch pairs a block number with an update patch, the unit of
// Partition.UpdateBlocks.
type BlockPatch struct {
	Block int
	Patch update.Patch
}

// OpError reports the failure of one staged batch operation.
type OpError struct {
	Index int    // position in staging order
	Op    string // "write" or "update"
	Block int
	Err   error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("op %d (%s block %d): %v", e.Index, e.Op, e.Block, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// BatchError aggregates every failing operation of a Batch.Apply. A
// batch commits atomically: when BatchError is returned, no operation
// of the batch — including the ones not listed — has taken effect.
type BatchError struct {
	Ops []*OpError
}

func (e *BatchError) Error() string {
	if len(e.Ops) == 1 {
		return "blockstore: batch: " + e.Ops[0].Error()
	}
	return fmt.Sprintf("blockstore: batch: %d operations failed (first: %v)", len(e.Ops), e.Ops[0])
}

// Unwrap exposes the per-op errors, so errors.Is reaches the wrapped
// sentinels (ErrBlockWritten, ErrBlockNotFound, ErrBatchConflict, ...).
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Ops))
	for i, op := range e.Ops {
		out[i] = op
	}
	return out
}

// batchOp is one staged mutation.
type batchOp struct {
	write   bool
	resynth bool // scrub repair: re-synthesize an existing unit verbatim
	block   int
	version int          // resynth target version
	data    []byte       // write payload, or resynth's sealed unit bytes
	patch   update.Patch // update patch
}

func (op batchOp) name() string {
	if op.resynth {
		return "resynth"
	}
	if op.write {
		return "write"
	}
	return "update"
}

// Batch stages write and update operations against a partition and
// commits them atomically with Apply. Staging is free of wet work; the
// whole batch synthesizes in one parallel prepare phase and lands in
// the tube under one short lock, so committing n blocks costs far less
// than n WriteBlock round-trips. A Batch is not safe for concurrent
// staging and is single-use: once Apply returns nil the batch is spent.
type Batch struct {
	p       *Partition
	ops     []batchOp
	applied bool
}

// Batch returns an empty staged batch for the partition.
func (p *Partition) Batch() *Batch { return &Batch{p: p} }

// Write stages data (at most BlockSize bytes) as the block's original
// version. The data is copied; the caller may reuse the slice.
func (b *Batch) Write(block int, data []byte) *Batch {
	b.ops = append(b.ops, batchOp{write: true, block: block, data: append([]byte(nil), data...)})
	return b
}

// Update stages a patch against the block. The block may have been
// written by an earlier Write of the same batch; version slots and
// overflow-log chains are planned across the whole batch, so several
// updates of one block land in consecutive slots.
func (b *Batch) Update(block int, patch update.Patch) *Batch {
	b.ops = append(b.ops, batchOp{block: block, patch: patch})
	return b
}

// resynthesize stages fresh physical copies of one existing
// (block, version) unit, from its already-sealed unit bytes (exactly
// DataBytes long, pad CRC included — typically a decoded
// BlockResult.Versions entry). The version table is untouched: the
// commit only adds strands, restoring a decayed unit's population.
// It is the scrubber's re-synthesis repair; commit-time conflict
// detection still aborts the batch if the block mutates concurrently.
func (b *Batch) resynthesize(block, version int, sealed []byte) *Batch {
	b.ops = append(b.ops, batchOp{
		resynth: true, block: block, version: version,
		data: append([]byte(nil), sealed...),
	})
	return b
}

// Len returns the number of staged operations.
func (b *Batch) Len() int { return len(b.ops) }

// plannedUnit is one (block, version) encoding unit the plan will
// synthesize: a data write, an update patch, or an overflow pointer.
type plannedUnit struct {
	op      int // staging index of the op that produced this unit
	block   int
	version int
	data    []byte      // sealed unit payload
	src     *rng.Source // private synthesis noise, forked in plan order
	synth   *pool.Pool  // filled by the parallel prepare phase
	strands int
}

// batchPlan is the digital front-end state of an in-flight batch: the
// staged mutations overlaid on per-block snapshots of the version
// table, plus the planned encoding units in deterministic order. Base
// values are captured lazily, only for the blocks the plan actually
// reads or writes (staging runs under p.mu against the live table), so
// planning costs O(touched blocks) and commit can detect concurrent
// mutations of exactly those blocks and nothing else.
type batchPlan struct {
	p *Partition

	baseVersions map[int]int
	baseWritten  map[int]bool
	baseOverflow map[int]int
	baseNext     int

	dVersions map[int]int
	dWritten  map[int]bool
	dOverflow map[int]int
	next      int
	nextOp    int // first op that allocated a log block, -1 if none

	touched map[int]int // block -> first op index that depends on it
	units   []plannedUnit
}

// newBatchPlan starts an empty plan over the live table. The caller
// must hold p.mu for the whole staging phase.
func newBatchPlan(p *Partition) *batchPlan {
	return &batchPlan{
		p:            p,
		baseVersions: make(map[int]int),
		baseWritten:  make(map[int]bool),
		baseOverflow: make(map[int]int),
		baseNext:     p.nextOverflow,
		dVersions:    make(map[int]int),
		dWritten:     make(map[int]bool),
		dOverflow:    make(map[int]int),
		next:         p.nextOverflow,
		nextOp:       -1,
		touched:      make(map[int]int),
	}
}

// touch records the block as a plan dependency and snapshots its live
// table entries on first contact.
func (pl *batchPlan) touch(block, op int) {
	if _, ok := pl.touched[block]; ok {
		return
	}
	pl.touched[block] = op
	pl.baseVersions[block] = pl.p.versions[block]
	pl.baseWritten[block] = pl.p.written[block]
	if o, ok := pl.p.overflow[block]; ok {
		pl.baseOverflow[block] = o
	}
}

func (pl *batchPlan) version(block, op int) int {
	pl.touch(block, op)
	if v, ok := pl.dVersions[block]; ok {
		return v
	}
	return pl.baseVersions[block]
}

func (pl *batchPlan) setVersion(block, v, op int) {
	pl.touch(block, op)
	pl.dVersions[block] = v
}

func (pl *batchPlan) written(block, op int) bool {
	pl.touch(block, op)
	if w, ok := pl.dWritten[block]; ok {
		return w
	}
	return pl.baseWritten[block]
}

func (pl *batchPlan) setWritten(block, op int) {
	pl.touch(block, op)
	pl.dWritten[block] = true
}

func (pl *batchPlan) overflowOf(block, op int) (int, bool) {
	pl.touch(block, op)
	if o, ok := pl.dOverflow[block]; ok {
		return o, true
	}
	o, ok := pl.baseOverflow[block]
	return o, ok
}

func (pl *batchPlan) setOverflow(block, log, op int) {
	pl.touch(block, op)
	pl.dOverflow[block] = log
}

func (pl *batchPlan) addUnit(op, block, version int, data []byte) {
	pl.units = append(pl.units, plannedUnit{op: op, block: block, version: version, data: data})
}

// stage plans every op against the overlay in staging order, producing
// the batch's encoding units. It is pure map-overlay bookkeeping done
// under p.mu (held by plan); the O(batch × unit-size) sealing work
// happened lock-free in seal, so the lock hold stays brief however
// large the batch. All failing ops are collected so the caller sees
// every conflict of the batch at once, not just the first.
func (pl *batchPlan) stage(p *Partition, ops []batchOp, sealed [][]byte) []*OpError {
	var errs []*OpError
	fail := func(i int, err error) {
		errs = append(errs, &OpError{Index: i, Op: ops[i].name(), Block: ops[i].block, Err: err})
	}
	for i, op := range ops {
		if op.resynth {
			// Repair: fresh copies of an existing unit. The version table
			// is read (for conflict detection via touch) but never moved.
			if !pl.written(op.block, i) {
				fail(i, fmt.Errorf("%w: block %d", ErrBlockNotFound, op.block))
				continue
			}
			pl.addUnit(i, op.block, op.version, sealed[i])
			continue
		}
		if op.write {
			if pl.written(op.block, i) {
				fail(i, fmt.Errorf("%w: block %d", ErrBlockWritten, op.block))
				continue
			}
			pl.setWritten(op.block, i)
			pl.addUnit(i, op.block, 0, sealed[i])
			continue
		}
		if !pl.written(op.block, i) {
			fail(i, fmt.Errorf("%w: block %d", ErrBlockNotFound, op.block))
			continue
		}
		if err := pl.appendVersion(p, i, op.block, sealed[i]); err != nil {
			fail(i, err)
		}
	}
	return errs
}

// allocLogBlock reserves the next overflow log block for from (a data
// block or an earlier log block), planning the pointer unit into from's
// last version slot. The log block's own v0 is left for the first
// overflowed patch. origin names the user block for error reporting;
// hop is the new log block's position in origin's chain, which may not
// pass maxOverflowHops.
func (pl *batchPlan) allocLogBlock(p *Partition, op, from, origin, hop int) (int, error) {
	if hop > maxOverflowHops {
		return 0, fmt.Errorf("%w: block %d overflow chain is at its %d-log-block limit", ErrOverflowFull, origin, maxOverflowHops)
	}
	logBlock := pl.next
	if logBlock < 0 || pl.written(logBlock, op) {
		return 0, fmt.Errorf("%w: block %d", ErrOverflowFull, origin)
	}
	ptr, err := update.MarshalOverflow(logBlock, p.BlockSize())
	if err != nil {
		return 0, err
	}
	pl.addUnit(op, from, directUpdateSlots+1, p.sealUnit(ptr))
	pl.setOverflow(from, logBlock, op)
	pl.next--
	if pl.nextOp < 0 {
		pl.nextOp = op
	}
	pl.setWritten(logBlock, op)
	pl.setVersion(logBlock, -1, op)
	return logBlock, nil
}

// appendVersion plans unit data as the block's next version,
// overflowing into log blocks when the direct slots are exhausted —
// the same slot discipline the paper's Section 5.3 describes, evaluated
// against the overlay so chains started earlier in the batch continue
// correctly.
func (pl *batchPlan) appendVersion(p *Partition, op, block int, unitData []byte) error {
	n := pl.version(block, op)
	if n < directUpdateSlots {
		pl.addUnit(op, block, n+1, unitData)
		pl.setVersion(block, n+1, op)
		return nil
	}
	logBlock, ok := pl.overflowOf(block, op)
	if !ok {
		var err error
		if logBlock, err = pl.allocLogBlock(p, op, block, block, 1); err != nil {
			return err
		}
		pl.setVersion(block, n+1, op) // the pointer consumes the slot
	}
	return pl.writeLog(p, op, logBlock, unitData, block, 1)
}

// writeLog plans patch data into a log block's version slots (including
// v0), chaining further log blocks as they fill. hop is logBlock's
// position in origin's chain.
func (pl *batchPlan) writeLog(p *Partition, op, logBlock int, unitData []byte, origin, hop int) error {
	n := pl.version(logBlock, op)
	if n+1 <= directUpdateSlots {
		pl.addUnit(op, logBlock, n+1, unitData)
		pl.setVersion(logBlock, n+1, op)
		return nil
	}
	next, ok := pl.overflowOf(logBlock, op)
	if !ok {
		var err error
		if next, err = pl.allocLogBlock(p, op, logBlock, origin, hop+1); err != nil {
			return err
		}
	}
	return pl.writeLog(p, op, next, unitData, origin, hop+1)
}

// Apply commits the staged operations atomically in three phases:
//
//  1. Plan — static validation, then version/log-slot planning for the
//     whole batch under a brief lock, snapshotting the table entries of
//     exactly the touched blocks. Conflicts inside the batch (double
//     writes, updates of unwritten blocks, overflow exhaustion) are all
//     reported here, per op, via BatchError; nothing wet has happened
//     yet and the partition noise stream is untouched.
//  2. Prepare — unit encode (whitening, RS parity, strand assembly) and
//     synthesis draws for every planned unit, fanned across
//     Config.Workers. Each unit draws noise from its own rng source
//     forked in plan order, so the synthesized species are
//     byte-identical at any worker count.
//  3. Commit — a short lock that re-validates the plan against the live
//     version table (concurrent mutations of the touched blocks surface
//     as ErrBatchConflict per op), installs the staged state, and
//     merges the synthesized species into the tube. Cost counters bump
//     once for the whole batch.
//
// On any error the partition state and the tube are unchanged.
func (b *Batch) Apply() error {
	if b.applied {
		return fmt.Errorf("blockstore: batch already applied")
	}
	if len(b.ops) == 0 {
		b.applied = true
		return nil
	}
	if errs := b.validate(); errs != nil {
		return &BatchError{Ops: errs}
	}
	sealed, errs := b.seal()
	if errs != nil {
		return &BatchError{Ops: errs}
	}
	plan, errs := b.plan(sealed)
	if errs != nil {
		// A batch that fails planning is side-effect free: the noise
		// stream below is only touched once the plan is sound, so failed
		// operations do not perturb later synthesis.
		return &BatchError{Ops: errs}
	}
	if err := b.prepare(plan); err != nil {
		return err
	}
	if err := b.commit(plan); err != nil {
		return err
	}
	b.applied = true
	return nil
}

// validate performs the lock-free static checks: block range, payload
// size, patch shape.
func (b *Batch) validate() []*OpError {
	p := b.p
	var errs []*OpError
	for i, op := range b.ops {
		err := p.checkBlock(op.block)
		switch {
		case err != nil:
		case op.resynth:
			if len(op.data) != p.unit.DataBytes() {
				err = fmt.Errorf("%w: resynth unit %d bytes, want %d", ErrBlockSize, len(op.data), p.unit.DataBytes())
			} else if op.version < 0 {
				err = fmt.Errorf("blockstore: resynth of negative version %d", op.version)
			}
		case op.write:
			if len(op.data) > p.BlockSize() {
				err = fmt.Errorf("%w: %d > %d", ErrBlockSize, len(op.data), p.BlockSize())
			}
		default:
			err = op.patch.Validate()
		}
		if err != nil {
			errs = append(errs, &OpError{Index: i, Op: op.name(), Block: op.block, Err: err})
		}
	}
	return errs
}

// seal prepares each op's unit payload lock-free: write data expanded
// to the unit size with its pad CRC, patches marshaled and sealed. Only
// geometry immutable after partition creation is consulted, so the
// locked plan phase below is left with pure bookkeeping.
func (b *Batch) seal() ([][]byte, []*OpError) {
	p := b.p
	var errs []*OpError
	sealed := make([][]byte, len(b.ops))
	for i, op := range b.ops {
		if op.resynth {
			sealed[i] = op.data // already full sealed unit bytes
			continue
		}
		if op.write {
			sealed[i] = p.sealUnit(op.data)
			continue
		}
		marshaled, err := op.patch.Marshal(p.BlockSize())
		if err != nil {
			errs = append(errs, &OpError{Index: i, Op: op.name(), Block: op.block, Err: err})
			continue
		}
		sealed[i] = p.sealUnit(marshaled)
	}
	return sealed, errs
}

// plan stages every op under a brief lock — pure digital work against
// the live version table, snapshotting exactly the entries it touches.
func (b *Batch) plan(sealed [][]byte) (*batchPlan, []*OpError) {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	pl := newBatchPlan(p)
	return pl, pl.stage(p, b.ops, sealed)
}

// prepare runs the wet-work construction for every planned unit across
// the partition's workers: encode the sealed payload into strands and
// draw the synthesis copy numbers. Exactly one draw leaves the
// partition noise stream per prepared batch, whatever the batch size or
// worker count; units share no state — each has its own rng source,
// forked in plan order — so results are byte-identical at any worker
// count.
func (b *Batch) prepare(plan *batchPlan) error {
	p := b.p
	p.mu.Lock()
	src := p.noise.Fork()
	p.mu.Unlock()
	for i := range plan.units {
		plan.units[i].src = src.Fork()
	}
	// With a fault injector armed, each order faces vendor dropout; a
	// retry policy adds write-side QC — re-order a dropped unit up to
	// MaxSynthRetries times. Every outcome draws only from the unit's
	// private source, so batches stay byte-identical at any worker
	// count, and with no injector no draw happens at all.
	inj := p.store.cfg.Faults
	attempts := 1
	if inj != nil && p.store.cfg.Retry != nil {
		attempts += p.store.cfg.Retry.Normalize().MaxSynthRetries
	}
	return parallel.Run(p.workers, len(plan.units), func(i int) error {
		u := &plan.units[i]
		orders, err := p.buildUnitOrders(u.block, u.version, u.data)
		if err != nil {
			return err
		}
		for a := 0; a < attempts; a++ {
			if inj.DropSynthesis(u.src) {
				continue
			}
			synth, err := pool.Synthesize(u.src, orders, p.store.cfg.Synthesis)
			if err != nil {
				return err
			}
			u.synth = synth
			u.strands = len(orders)
			return nil
		}
		// Every order was dropped by the vendor: the unit ships empty.
		// The digital commit proceeds — the block's table entries exist —
		// but no physical strands back it, the silent loss the supervised
		// write QC above exists to prevent.
		u.synth = pool.New()
		return nil
	})
}

// commit validates the plan against the live version table and, if no
// touched block changed since the snapshot, installs the staged state
// and merges the synthesized species into the tube — all under one
// short lock, so a concurrent reader that observes the new version
// table also finds the strands.
func (b *Batch) commit(plan *batchPlan) error {
	p := b.p
	// Merge the per-unit pools outside the lock; plan order keeps the
	// species insertion order identical at any worker count. Repair
	// units merge separately: their material is concentration-normalized
	// against the live tube at mix time (see Store.resynthScale).
	merged := pool.New()
	repairs := pool.New()
	strands := 0
	for i := range plan.units {
		u := &plan.units[i]
		if b.ops[u.op].resynth {
			repairs.MixInto(u.synth, 1)
		} else {
			merged.MixInto(u.synth, 1)
		}
		strands += u.strands
	}
	blocks := make([]int, 0, len(plan.touched))
	for blk := range plan.touched {
		blocks = append(blocks, blk)
	}
	sort.Ints(blocks)

	p.mu.Lock()
	var conflicts []*OpError
	conflict := func(blk int) {
		op := plan.touched[blk]
		conflicts = append(conflicts, &OpError{
			Index: op, Op: b.ops[op].name(), Block: blk,
			Err: fmt.Errorf("%w: block %d changed since the batch was staged", ErrBatchConflict, blk),
		})
	}
	for _, blk := range blocks {
		liveOv, liveOk := p.overflow[blk]
		baseOv, baseOk := plan.baseOverflow[blk]
		if p.versions[blk] != plan.baseVersions[blk] ||
			p.written[blk] != plan.baseWritten[blk] ||
			liveOv != baseOv || liveOk != baseOk {
			conflict(blk)
		}
	}
	if plan.nextOp >= 0 && p.nextOverflow != plan.baseNext {
		conflicts = append(conflicts, &OpError{
			Index: plan.nextOp, Op: b.ops[plan.nextOp].name(), Block: b.ops[plan.nextOp].block,
			Err: fmt.Errorf("%w: overflow allocator moved since the batch was staged", ErrBatchConflict),
		})
	}
	if conflicts != nil {
		p.mu.Unlock()
		return &BatchError{Ops: conflicts}
	}
	for blk, v := range plan.dVersions {
		p.versions[blk] = v
	}
	for blk := range plan.dWritten {
		p.written[blk] = true
	}
	for blk, log := range plan.dOverflow {
		p.overflow[blk] = log
	}
	// Install the allocator only when this plan allocated log blocks (the
	// nextOp check above then guarantees the live value still matches the
	// snapshot): a non-allocating plan's stale snapshot must not roll
	// back a concurrent batch's allocations.
	if plan.nextOp >= 0 {
		p.nextOverflow = plan.next
	}
	if merged.Len() > 0 {
		p.store.mixIntoTube(merged, 1)
	}
	if repairs.Len() > 0 {
		p.store.mixIntoTube(repairs, p.store.resynthScale(repairs))
	}
	p.mu.Unlock()
	p.store.addCosts(func(c *Costs) { c.StrandsSynthesized += strands })
	return nil
}

// applyRetry commits the batch, restaging and retrying while every
// reported failure is a lost commit race. The classic mutation API
// (WriteBlock, UpdateBlock, Write, WriteBlocks, UpdateBlocks)
// serialized on the partition mutex before the batch engine and must
// not start failing each other spuriously now; real conflicts — a
// write-once violation, overflow exhaustion — still surface. Progress
// is guaranteed: a lost race means some competing batch committed, so
// the loop terminates once the contenders drain.
func (b *Batch) applyRetry() error {
	for {
		err := b.Apply()
		be, ok := err.(*BatchError)
		if !ok {
			return err
		}
		for _, op := range be.Ops {
			if !errors.Is(op, ErrBatchConflict) {
				return err
			}
		}
	}
}

// apply1 commits a single-op batch on behalf of the classic per-block
// API, unwrapping the one-op BatchError to its underlying error.
func (b *Batch) apply1() error {
	err := b.applyRetry()
	if be, ok := err.(*BatchError); ok && len(be.Ops) == 1 {
		return be.Ops[0].Err
	}
	return err
}
