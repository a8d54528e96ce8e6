package blockstore

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"dnastore/internal/codec"
	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/indextree"
	"dnastore/internal/layout"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// Partition is one primer pair's address space, internally blocked by a
// PCR-navigable index tree.
//
// Partitions are safe for concurrent use. Reads are the hot path: the
// digital front-end state (version/written maps, primer cache, noise
// stream) is consulted briefly under the partition mutex, and the wet
// work — PCR, sequencing, decoding — runs outside it, fanned across
// workers for range and batched reads. Writes go through the staged
// Batch engine (see batch.go): version and log slots are planned
// against a snapshot, unit encoding and synthesis draws fan across the
// workers lock-free, and a short commit validates the plan against the
// live version table before merging the species into the tube.
type Partition struct {
	store    *Store
	name     string
	fwd, rev dna.Seq
	tree     *indextree.Tree
	rand     *codec.Randomizer
	unit     *layout.UnitCodec
	pipeline *decode.Pipeline
	workers  int

	// mu guards the digital front-end state below. The noise stream is
	// never consumed directly by a reaction: each reaction forks its own
	// child source under mu, in deterministic order, so parallel and
	// serial execution sample identical noise.
	mu           sync.Mutex
	versions     map[int]int // block -> updates written so far
	written      map[int]bool
	overflow     map[int]int // block -> its overflow log block
	nextOverflow int
	cache        *PrimerCache // optional elongated-primer cache
	noise        *rng.Source
}

// directUpdateSlots is the number of updates stored in the block's own
// version slots before overflowing: version bases give 4 slots, one for
// data, and the last slot is reserved for the overflow pointer, so two
// updates live inline (Section 5.3).
const directUpdateSlots = 2

// Name returns the partition name.
func (p *Partition) Name() string { return p.name }

// BlockSize returns the usable bytes per block (264 - pad = 256 in the
// paper's geometry).
func (p *Partition) BlockSize() int { return p.unit.DataBytes() - p.store.cfg.PadBytes }

// Blocks returns the number of addressable blocks (4^depth).
func (p *Partition) Blocks() int { return p.tree.Leaves() }

// Tree exposes the partition's index tree.
func (p *Partition) Tree() *indextree.Tree { return p.tree }

// Primers returns the partition's main primer pair.
func (p *Partition) Primers() (fwd, rev dna.Seq) { return p.fwd, p.rev }

// SetPrimerCache installs an elongated-primer cache (Section 7.7.4).
// Without a cache every elongated access synthesizes its primer anew.
func (p *Partition) SetPrimerCache(c *PrimerCache) {
	p.mu.Lock()
	p.cache = c
	p.mu.Unlock()
}

// Versions returns how many updates the block has received.
func (p *Partition) Versions(block int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.versions[block]
}

// ElongatedPrimer returns the block's fully elongated forward primer
// (main primer + sync base + full index), 31 bases in the paper's
// geometry.
func (p *Partition) ElongatedPrimer(block int) (dna.Seq, error) {
	idx, err := p.tree.Encode(block)
	if err != nil {
		return nil, err
	}
	return p.store.cfg.Geometry.ElongatedPrimer(p.fwd, idx), nil
}

// checkBlock validates a block number.
func (p *Partition) checkBlock(block int) error {
	if block < 0 || block >= p.Blocks() {
		return fmt.Errorf("%w: %d of %d", ErrBlockRange, block, p.Blocks())
	}
	return nil
}

// chargeElongated runs one elongated-primer use through the cache (if
// installed) and charges a synthesis on a miss. The caller must hold
// p.mu, which keeps cache state deterministic: all charging happens in
// the serial front-end phase of an access, never inside parallel wet
// work.
func (p *Partition) chargeElongated(key string) {
	if p.cache != nil && p.cache.AccessKey(key) {
		return
	}
	p.store.addCosts(func(c *Costs) { c.ElongatedPrimersSynthesized++ })
}

// maxOverflowHops bounds a block's overflow chain at this many log
// blocks. Each log block holds directUpdateSlots+1 patches, so a block
// takes directUpdateSlots + 3*maxOverflowHops = 26 updates in all:
// batch planning refuses the update that would need one more log block
// with ErrOverflowFull, and reads charge and follow at most this many
// hops.
const maxOverflowHops = 8

// chargeOverflow charges the elongated primers of the block's
// overflow-log chain, records each log block's expected versions in
// exp, and returns the chain length — the extra PCR retrievals
// assembly will perform, which the caller's wear accounting includes.
// The digital front-end knows the chain without any wet work, so the
// charging stays in the serial phase. The caller must hold p.mu.
func (p *Partition) chargeOverflow(block int, exp map[int][]int) int {
	hops := 0
	for log, ok := p.overflow[block]; ok && hops < maxOverflowHops; log, ok = p.overflow[log] {
		p.chargeElongated(blockPrimerKey(log))
		exp[log] = p.expected(log)
		hops++
	}
	return hops
}

// buildUnitOrders encodes one (block, version) unit into its synthesis
// orders: per-unit whitening, RS parity, index lookup, strand assembly.
// data must be exactly unit.DataBytes() long and already include
// padding. The work touches only digital state that is immutable after
// partition creation (randomizer, unit codec, tree, geometry), so it
// needs no lock and fans safely across batch workers.
func (p *Partition) buildUnitOrders(block, version int, data []byte) ([]pool.SynthesisOrder, error) {
	white := p.rand.Derive(decode.UnitSeed(block, version)).Apply(data)
	payloads, err := p.unit.Encode(white)
	if err != nil {
		return nil, err
	}
	idx, err := p.tree.Encode(block)
	if err != nil {
		return nil, err
	}
	orders := make([]pool.SynthesisOrder, 0, len(payloads))
	for intra, pl := range payloads {
		seq, err := p.store.cfg.Geometry.Assemble(p.fwd, p.rev, layout.Strand{
			Index: idx, Version: version, Intra: intra, Payload: pl,
		})
		if err != nil {
			return nil, err
		}
		orders = append(orders, pool.SynthesisOrder{
			Seq: seq,
			Meta: pool.Meta{
				Partition:   p.name,
				Block:       block,
				Version:     version,
				Intra:       intra,
				OriginBlock: block,
			},
		})
	}
	return orders, nil
}

// sealUnit expands block content to the unit size, writing a CRC32 of
// the content into the padding (Section 6.2's "randomly padded" tail;
// the whitening still turns it into random-looking bases). The CRC is
// the correctness oracle for the decoder's candidate recursion; New
// guarantees the 4 pad bytes it needs.
func (p *Partition) sealUnit(content []byte) []byte {
	out := make([]byte, p.unit.DataBytes())
	copy(out, content)
	bs := p.BlockSize()
	crc := crc32.ChecksumIEEE(out[:bs])
	out[bs] = byte(crc >> 24)
	out[bs+1] = byte(crc >> 16)
	out[bs+2] = byte(crc >> 8)
	out[bs+3] = byte(crc)
	return out
}

// verifyUnit checks a decoded unit's pad CRC.
func (p *Partition) verifyUnit(data []byte) bool {
	if len(data) != p.unit.DataBytes() {
		return false
	}
	bs := p.BlockSize()
	crc := crc32.ChecksumIEEE(data[:bs])
	return data[bs] == byte(crc>>24) && data[bs+1] == byte(crc>>16) &&
		data[bs+2] == byte(crc>>8) && data[bs+3] == byte(crc)
}

// WriteBlock stores data (at most BlockSize bytes) as the block's
// original version. It is a one-op batch; WriteBlocks or a staged
// Batch commits many blocks far more cheaply.
func (p *Partition) WriteBlock(block int, data []byte) error {
	return p.Batch().Write(block, data).apply1()
}

// Write stores data sequentially from block 0 in one batch commit,
// returning the number of blocks consumed. On error nothing is written.
func (p *Partition) Write(data []byte) (int, error) {
	bs := p.BlockSize()
	n := (len(data) + bs - 1) / bs
	if n > p.Blocks() {
		return 0, fmt.Errorf("%w: %d blocks needed, %d available", ErrBlockSize, n, p.Blocks())
	}
	b := p.Batch()
	for i := 0; i < n; i++ {
		end := (i + 1) * bs
		if end > len(data) {
			end = len(data)
		}
		b.Write(i, data[i*bs:end])
	}
	if err := b.applyRetry(); err != nil {
		return 0, err
	}
	return n, nil
}

// WriteBlocks stores several blocks in one batch commit, staged in
// ascending block order. On error (reported per op via BatchError)
// nothing is written.
func (p *Partition) WriteBlocks(blocks map[int][]byte) error {
	if len(blocks) == 0 {
		return nil
	}
	order := make([]int, 0, len(blocks))
	for blk := range blocks {
		order = append(order, blk)
	}
	sort.Ints(order)
	b := p.Batch()
	for _, blk := range order {
		b.Write(blk, blocks[blk])
	}
	return b.applyRetry()
}

// UpdateBlock logs a patch against the block. The first two updates
// occupy the block's own version slots; further updates overflow into a
// log block whose pointer occupies the last slot (Section 5.3).
func (p *Partition) UpdateBlock(block int, patch update.Patch) error {
	return p.Batch().Update(block, patch).apply1()
}

// UpdateBlocks logs several patches in one batch commit, in slice
// order; multiple patches against one block land in consecutive version
// slots, overflow chains included. On error (reported per op via
// BatchError) nothing is written.
func (p *Partition) UpdateBlocks(patches []BlockPatch) error {
	b := p.Batch()
	for _, bp := range patches {
		b.Update(bp.Block, bp.Patch)
	}
	return b.applyRetry()
}

// UpdateBlockExternal prepares an update patch as a separately
// synthesized pool — the paper's IDT flow (Section 6.4.1), where small
// update pools come from a cheaper vendor with a very different
// concentration — without adding it to the tube. The version counter is
// advanced as usual; the caller is responsible for physically mixing the
// returned pool into the tube (package mix).
func (p *Partition) UpdateBlockExternal(block int, patch update.Patch, params pool.SynthesisParams) (*pool.Pool, error) {
	if err := p.checkBlock(block); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.written[block] {
		return nil, fmt.Errorf("%w: block %d", ErrBlockNotFound, block)
	}
	n := p.versions[block]
	if n >= directUpdateSlots {
		return nil, fmt.Errorf("blockstore: external updates support only direct slots (block %d has %d)", block, n)
	}
	marshaled, err := patch.Marshal(p.BlockSize())
	if err != nil {
		return nil, err
	}
	version := n + 1
	orders, err := p.buildUnitOrders(block, version, p.sealUnit(marshaled))
	if err != nil {
		return nil, err
	}
	external, err := pool.Synthesize(p.noise, orders, params)
	if err != nil {
		return nil, err
	}
	p.store.addCosts(func(c *Costs) { c.StrandsSynthesized += len(orders) })
	p.versions[block] = version
	return external, nil
}

// BlockVersions holds the decoded raw units of one block retrieval.
type BlockVersions struct {
	// Data is the original (version 0) unit payload, BlockSize bytes.
	Data []byte
	// Patches are the update patches in application order, with any
	// overflow chain already resolved.
	Patches []update.Patch
	// Decode carries pipeline statistics for the access.
	Decode decode.BlockResult
}

// ReadBlockVersions performs one wet retrieval of the block and returns
// its data and the full ordered patch list (resolving overflow chains
// with additional retrievals as needed). Like every plain read it fails
// with the typed coverage or RS-margin error when any version the block
// was written with did not decode, rather than serving older content.
func (p *Partition) ReadBlockVersions(block int) (*BlockVersions, error) {
	return p.versionsOf(p.planBlocks([]int{block}, plainRead))
}

// DecodeReads runs only the software pipeline on externally produced
// reads (e.g. the Section 8 experiment decoding a 225-read sample),
// skipping the store's own PCR and sequencing. The block must be
// written, and the reads must carry every version it was written with:
// the expected-version check of the live reads applies.
func (p *Partition) DecodeReads(seqs []dna.Seq, block int) (*BlockVersions, error) {
	if err := p.checkBlock(block); err != nil {
		return nil, err
	}
	res, err := p.pipeline.DecodeBlock(seqs, block)
	if err != nil {
		return nil, err
	}
	// The caller supplied the reads, so only the overflow-chain hops
	// touch the tube.
	return p.versionsOf(p.plan(plainRead, []reaction{{lo: block, hi: block, single: true, decoded: res}}))
}

// versionsOf runs a planned one-block access for its raw units.
func (p *Partition) versionsOf(pl *readPlan, err error) (*BlockVersions, error) {
	if _, _, err = p.read(pl, err); err != nil {
		return nil, err
	}
	return pl.slots[0].bv, nil
}

// ReadBlock retrieves the block and returns its current content with all
// updates applied. The result length may differ from BlockSize when
// patches changed the data size.
func (p *Partition) ReadBlock(block int) ([]byte, error) {
	content, err := p.ReadBlocks([]int{block})
	if err != nil {
		return nil, err
	}
	return content[0], nil
}

// ReadBlocks retrieves several blocks in one batched access, one
// elongated PCR reaction per block, fanned across the store's workers.
// Results are returned in the order requested; every block must have
// been written. Outputs are byte-identical to reading the blocks one by
// one in order. The first block that fails to decode in full fails the
// call with its typed error.
func (p *Partition) ReadBlocks(blocks []int) ([][]byte, error) {
	content, _, err := p.read(p.planBlocks(blocks, plainRead))
	return content, err
}

// ReadRange retrieves blocks lo..hi (inclusive) using the minimal prefix
// cover: one PCR per cover prefix with a partially elongated primer
// (Section 4's sequential access), the reactions fanned across the
// store's workers. It returns the written data blocks in block order,
// updates applied, or the typed error of the first that failed.
func (p *Partition) ReadRange(lo, hi int) ([][]byte, error) {
	content, _, err := p.read(p.planRange(lo, hi, plainRead))
	return content, err
}

// ReadAll retrieves the entire partition with the main primers (the
// baseline random access of Figure 9a) and returns all written blocks in
// order.
func (p *Partition) ReadAll() ([][]byte, error) {
	content, _, err := p.read(p.plan(plainRead, []reaction{{fwd: p.fwd, main: true, hi: p.Blocks() - 1}}))
	return content, err
}
