package main

import (
	"fmt"
	"sort"
	"time"

	"dnastore/internal/blockstore"
	"dnastore/internal/decay"
	"dnastore/internal/primer"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// workload is one set of inputs the benchmark drives. op runs the i-th
// closed-loop operation of the timed phase. exactOps is the prefix of
// timed operations the exact counts cover; the timed phase always runs
// at least that many.
type workload struct {
	name     string
	exactOps int
	build    func(seed uint64) (*env, error)
	op       func(r *runner, i int) error
}

var workloads = []*workload{
	{name: "point-read", exactOps: 80, build: buildPointTube, op: pointRead},
	{name: "range-scan", exactOps: 4, build: buildPointTube, op: rangeScan},
	{name: "update-churn", exactOps: 5, build: buildChurnTube, op: churnCycle},
	{name: "aged-scrub", exactOps: 2, build: buildAgedTube, op: scrubCycle},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// storeSeed fixes the device every workload runs on: the primer
// library, the index trees, the randomizers and the reaction noise
// stream. The benchmark seed chooses the inputs — the data written and
// the operations run — not the device, whose primers alone move the
// cost of a reaction by half from one library to the next.
const storeSeed = 0xd4a

// newStore builds an empty tube: the paper's default configuration at
// the given tree depth, two engine workers, no fault injector, the
// store's default binding cache and streaming decode on.
func newStore(partitions, depth int, prof *decay.Profile) (*blockstore.Store, error) {
	lib := primer.NewLibrary(primer.DefaultConstraints())
	want := 2*partitions + 2
	lib.Search(rng.New(storeSeed^0x9121e), want, 4_000_000)
	if lib.Len() < want {
		return nil, fmt.Errorf("primer search found %d of %d primers", lib.Len(), want)
	}
	cfg := blockstore.DefaultConfig()
	cfg.Seed = storeSeed
	cfg.Workers = 2
	cfg.Decay = prof
	if depth != cfg.TreeDepth {
		cfg.SetTreeDepth(depth)
	}
	return blockstore.New(cfg, lib.Primers())
}

// randomBlock draws one block of user data.
func randomBlock(r *rng.Source, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// fill writes blocks [0, n) of p with random data in one batch and
// returns their contents.
func fill(p *blockstore.Partition, r *rng.Source, n int) (map[int][]byte, error) {
	b := p.Batch()
	data := make(map[int][]byte, n)
	for i := 0; i < n; i++ {
		data[i] = randomBlock(r, p.BlockSize())
		b.Write(i, data[i])
	}
	if err := b.Apply(); err != nil {
		return nil, fmt.Errorf("fill %s: %w", p.Name(), err)
	}
	return data, nil
}

// buildFilled creates partitions of 4^depth blocks each, writes
// blocksPerPart blocks into every one, and models partition 0.
func buildFilled(seed uint64, partitions, depth, blocksPerPart int, prof *decay.Profile) (*env, error) {
	st, err := newStore(partitions, depth, prof)
	if err != nil {
		return nil, err
	}
	data := rng.New(seed ^ 0x64617461)
	e := &env{store: st}
	for i := 0; i < partitions; i++ {
		p, err := st.CreatePartition(fmt.Sprintf("p%d", i))
		if err != nil {
			return nil, err
		}
		m, err := fill(p, data, blocksPerPart)
		if err != nil {
			return nil, err
		}
		e.userBytes += blocksPerPart * p.BlockSize()
		if i == 0 {
			e.part, e.model = p, m
		}
	}
	return e, nil
}

// buildPointTube is the point-read and range-scan tube: 4 partitions x
// 1024 blocks at depth 5, 61,440 strands, 1 MiB of user data.
func buildPointTube(seed uint64) (*env, error) { return buildFilled(seed, 4, 5, 1024, nil) }

// pointRead reads one uniformly random block of partition 0.
func pointRead(r *runner, _ int) error {
	return r.readBlock(r.ops.Intn(r.e.part.Blocks()))
}

// Range-scan geometry: 64-block scans whose starts are the thirteen
// 16-aligned positions inside the first 256 blocks, taken in one fixed
// order that every seed shares (the seed chooses the data). The four
// 64-aligned starts (one cover reaction each) come every fourth scan;
// the rest straddle a boundary (four covers). The order is fixed because
// a scan's cost depends on its region: on the storeSeed tube a scan that
// covers blocks 0..63 spends about ten times longer in the streaming
// engine's assignment stage than one that does not, and seeded starts
// moved a run's median scan time by a quarter.
const scanLen = 64

var scanStarts = []int{16, 96, 160, 0, 176, 32, 112, 64, 144, 48, 80, 128, 192}

func rangeScan(r *runner, i int) error {
	lo := scanStarts[i%len(scanStarts)]
	return r.readRange(lo, lo+scanLen-1)
}

// Update-churn geometry: one 1024-block partition, half written in
// setup; each cycle commits one batch of churnWrites new blocks and
// churnPatches patches, half of them on a hot set of hotBlocks blocks
// that spills into overflow logs, then reads back every touched block.
const (
	churnPrefill = 512
	churnWrites  = 16
	churnPatches = 16
	hotBlocks    = 16
	// churnWriteLimit stops new writes well before the overflow logs,
	// allocated from the top of the partition downwards, could meet them.
	churnWriteLimit = 896
)

func buildChurnTube(seed uint64) (*env, error) {
	e, err := buildFilled(seed, 1, 5, churnPrefill, nil)
	if err != nil {
		return nil, err
	}
	e.nextWrite = churnPrefill
	e.hotOffset = rng.New(seed ^ 0x686f74).Intn(hotBlocks)
	return e, nil
}

// churnCycle commits one mixed batch and reads back what it touched.
func churnCycle(r *runner, _ int) error {
	e := r.e
	var ops []batchOp
	touched := map[int]bool{}
	for i := 0; i < churnWrites && e.nextWrite < churnWriteLimit; i++ {
		ops = append(ops, batchOp{block: e.nextWrite, data: randomBlock(r.ops, e.part.BlockSize())})
		touched[e.nextWrite] = true
		e.nextWrite++
	}
	for i := 0; i < churnPatches; i++ {
		var block int
		if i%2 == 0 {
			// The hot set takes its patches round-robin from a seeded
			// offset, so every hot block grows its chain at the same pace
			// whatever the seed.
			block = (e.hotOffset + e.hotNext) % hotBlocks
			e.hotNext++
		} else {
			block = hotBlocks + r.ops.Intn(churnPrefill-hotBlocks)
		}
		// Same-length replacement patches keep every block at the block
		// size, so each block always holds exactly one unit's data.
		n := 1 + r.ops.Intn(16)
		pos := r.ops.Intn(e.part.BlockSize() - n)
		p := update.Patch{DeleteStart: pos, DeleteCount: n, InsertPos: pos, Insert: randomBlock(r.ops, n)}
		ops = append(ops, batchOp{block: block, patch: &p})
		touched[block] = true
	}
	if err := r.applyBatch(ops); err != nil {
		return err
	}
	blocks := make([]int, 0, len(touched))
	for b := range touched {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	for _, b := range blocks {
		if r.stopEarly() {
			return nil
		}
		if err := r.readBlock(b); err != nil {
			return err
		}
	}
	return nil
}

// Aged-scrub geometry: one 64-block partition (depth 3) aged to
// agedDays under the accelerated profile before the clock starts. Five
// days is one aging substep: mutants materialize once (~8,600 species),
// a pass takes a few seconds, and about one probe in a hundred is
// flagged and repaired. Two more days bloat the pool to ~32,000 species
// and a pass to ~14 s.
const (
	agedDepth    = 3
	agedDays     = 5
	readBackPass = 32
)

func buildAgedTube(seed uint64) (*env, error) {
	prof := decay.Accelerated()
	e, err := buildFilled(seed, 1, agedDepth, 1<<(2*agedDepth), &prof)
	if err != nil {
		return nil, err
	}
	e.advanceAt = time.Now()
	if e.aged, err = e.store.Advance(agedDays); err != nil {
		return nil, err
	}
	e.advance = time.Since(e.advanceAt)
	return e, nil
}

// scrubCycle runs one scrub pass, then reads back readBackPass blocks:
// the i-th cycle reads every stride-th block from i mod stride, so any
// stride consecutive cycles read each block once whatever the seed.
func scrubCycle(r *runner, i int) error {
	if err := r.scrub(); err != nil {
		return err
	}
	stride := r.e.part.Blocks() / readBackPass
	for k := 0; k < readBackPass; k++ {
		if r.stopEarly() {
			return nil
		}
		if err := r.readBlock(i%stride + k*stride); err != nil {
			return err
		}
	}
	return nil
}
