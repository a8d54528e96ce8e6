package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dnastore/internal/binding"
	"dnastore/internal/blockstore"
	"dnastore/internal/decay"
	"dnastore/internal/dna"
	"dnastore/internal/indextree"
	"dnastore/internal/pcr"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/seqsim"
	"dnastore/internal/streamdecode"
	"dnastore/internal/update"
)

// span is one traced interval: a public blockstore call, or a layer
// call of a replay. Spans of one operation share Op; a replay span's
// Parent is the public call it replays. Times are microseconds from the
// start of the timed phase.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_us"`
	End    float64            `json:"end_us"`
	Err    string             `json:"err,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// probe is the store's public counters at one instant.
type probe struct {
	costs   blockstore.Costs
	bind    blockstore.BindingStats
	stream  streamdecode.Stats
	decay   decay.Stats
	species int
}

// tracer records spans around the public calls, counter deltas from the
// store's public accessors, and child spans from replaying each read's
// wet protocol through the exported layer entry points. The replay runs
// PCR on the store's own tube under a private binding cache, samples
// with its own noise, and decodes on the twin, so the store under test
// keeps exactly the state of an untraced run.
type tracer struct {
	e       *env
	start   time.Time
	spans   []span
	ops     int // public calls traced
	cache   *binding.Cache
	sampler *seqsim.Sampler
	noise   *rng.Source

	overhead time.Duration            // counter snapshots and span bookkeeping
	layer    map[string]time.Duration // replayed time per layer
	callWall map[string]time.Duration // wall time per public call name
	calls    map[string]int
	sums     map[string]float64 // counter deltas per "call.counter"

	reactions, ampSpecies       int // replayed PCR reactions and their products' species
	replays, decoded, patches   int // replayed reads, decodes, patches applied
	carried                     int // blocks the decoded read sets carry
	replayFailed                int // replayed decodes that ended in a typed error
	replayStale                 int // replayed decodes that silently missed a version
	scrubProbed, scrubFlagged   int
	scrubRepaired, scrubResynth int
	scrubBoosts                 int
	first                       probe
}

func newTracer(e *env) (*tracer, error) {
	sampler, err := seqsim.NewSampler(seqsim.Profile{Rates: e.store.Config().Rates})
	if err != nil {
		return nil, err
	}
	t := &tracer{
		e:        e,
		cache:    binding.NewCache(0),
		sampler:  sampler,
		noise:    rng.New(e.store.Config().Seed ^ 0x7265706c6179),
		layer:    map[string]time.Duration{},
		callWall: map[string]time.Duration{},
		calls:    map[string]int{},
		sums:     map[string]float64{},
	}
	t.first = t.probe()
	return t, nil
}

// begin starts the timed phase's clock and records the setup's Advance
// call, which ran before it (negative times).
func (t *tracer) begin(at time.Time) {
	t.start = at
	if t.e.advance == 0 {
		return
	}
	a := t.e.aged
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Name: "Advance",
		Start: t.us(t.e.advanceAt), End: t.us(t.e.advanceAt.Add(t.e.advance)),
		Counts: map[string]float64{"species_aged": float64(a.SpeciesAged), "mutants": float64(a.MutantSpecies),
			"strands_lost": a.StrandsLost, "extinct": float64(a.SpeciesExtinct)}})
}

func (t *tracer) probe() probe {
	bind, _ := t.e.store.BindingStats()
	return probe{
		costs:   t.e.store.Costs(),
		bind:    bind,
		stream:  t.e.store.StreamStats(),
		decay:   t.e.store.DecayStats(),
		species: t.e.store.Tube().Len(),
	}
}

// before snapshots the counters ahead of a public call.
func (t *tracer) before() probe {
	t0 := time.Now()
	p := t.probe()
	t.overhead += time.Since(t0)
	return p
}

// deltas returns the counter movement between two probes.
func deltas(a, b probe) map[string]float64 {
	return map[string]float64{
		"seq_reads":        float64(b.costs.ReadsSequenced - a.costs.ReadsSequenced),
		"ejected":          float64(b.costs.ReadsEjected - a.costs.ReadsEjected),
		"pcr":              float64(b.costs.PCRReactions - a.costs.PCRReactions),
		"strands":          float64(b.costs.StrandsSynthesized - a.costs.StrandsSynthesized),
		"primers":          float64(b.costs.ElongatedPrimersSynthesized - a.costs.ElongatedPrimersSynthesized),
		"bind_row_hits":    float64(b.bind.RowHits - a.bind.RowHits),
		"bind_hits":        float64(b.bind.Hits - a.bind.Hits),
		"bind_misses":      float64(b.bind.Misses - a.bind.Misses),
		"bind_evictions":   float64(b.bind.Evictions - a.bind.Evictions),
		"kept":             float64(b.stream.Kept - a.stream.Kept),
		"residue":          float64(b.stream.Residue - a.stream.Residue),
		"finalize_jobs":    float64(b.stream.FinalizeJobs - a.stream.FinalizeJobs),
		"finalize_discard": float64(b.stream.FinalizeDiscarded - a.stream.FinalizeDiscarded),
		"species":          float64(b.species - a.species),
		"mutants":          float64(b.decay.MutantSpecies - a.decay.MutantSpecies),
		"strands_lost":     b.decay.StrandsLost - a.decay.StrandsLost,
	}
}

// call records a public call's span and counter deltas and returns the
// span id.
func (t *tracer) call(name string, t0 time.Time, d time.Duration, before probe, err error) int {
	s0 := time.Now()
	t.ops++
	counts := deltas(before, t.probe())
	s := span{ID: len(t.spans), Parent: -1, Op: t.ops, Name: name,
		Start: t.us(t0), End: t.us(t0.Add(d)), Counts: counts}
	if err != nil {
		s.Err = err.Error()
	}
	t.spans = append(t.spans, s)
	t.callWall[name] += d
	t.calls[name]++
	for k, v := range counts {
		t.sums[name+"."+k] += v
	}
	t.overhead += time.Since(s0)
	return s.ID
}

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

// child times f as a replay span of layer under the public call parent.
func (t *tracer) child(parent int, layer string, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	s := span{ID: len(t.spans), Parent: parent, Op: t.spans[parent].Op, Name: layer,
		Start: t.us(t0), End: t.us(t0.Add(d))}
	if err != nil {
		s.Err = err.Error()
	}
	t.spans = append(t.spans, s)
	t.layer[layer] += d
	return err
}

// scrubReport folds a scrub pass's report into the trace.
func (t *tracer) scrubReport(id int, rep *blockstore.ScrubReport) {
	if rep == nil {
		return
	}
	t.scrubProbed += rep.BlocksProbed
	t.scrubFlagged += rep.BlocksFlagged
	t.scrubRepaired += rep.Repaired
	t.scrubResynth += rep.Resyntheses
	t.scrubBoosts += rep.Boosts
	c := t.spans[id].Counts
	c["probed"], c["flagged"], c["repaired"] = float64(rep.BlocksProbed), float64(rep.BlocksFlagged), float64(rep.Repaired)
}

// react replays one PCR reaction on the store's tube under the private
// cache, with the store's own reaction parameters.
func (t *tracer) react(parent int, fwd dna.Seq) (*pool.Pool, error) {
	cfg := t.e.store.Config()
	mainFwd, rev := t.e.part.Primers()
	primers := []pcr.Primer{{Fwd: fwd, Rev: rev, Conc: 1}}
	if cfg.CarryoverConc > 0 {
		primers = append(primers, pcr.Primer{Fwd: mainFwd, Rev: rev, Conc: cfg.CarryoverConc})
	}
	params := cfg.PCR
	params.Provider = t.cache
	params.Capacity = cfg.CapacityFactor * t.e.store.Tube().Total()
	params.Workers = cfg.Workers
	var amp *pool.Pool
	err := t.child(parent, "pcr", func() error {
		var err error
		amp, _, err = pcr.Run(t.e.store.Tube(), primers, params)
		return err
	})
	if err == nil {
		t.reactions++
		t.ampSpecies += amp.Len()
	}
	return amp, err
}

// sequence replays the batch protocol's sequencing of a reaction at the
// store's read budget for units encoding units.
func (t *tracer) sequence(parent int, amp *pool.Pool, units int) ([]dna.Seq, error) {
	var seqs []dna.Seq
	err := t.child(parent, "seqsim", func() error {
		reads, err := t.sampler.Sample(t.noise, amp, t.e.store.ReadBudget(units))
		seqs = make([]dna.Seq, len(reads))
		for i, rd := range reads {
			seqs[i] = rd.Seq
		}
		return err
	})
	return seqs, err
}

// decodeBlock replays the software pipeline and the patch application
// for one block of a read set that carries the given number of blocks,
// and checks the bytes against the model. A typed decode failure of the
// replay is counted, not fatal: the batch protocol it replays is not
// the streamed read the store served.
func (t *tracer) decodeBlock(parent int, seqs []dna.Seq, block, carried int) error {
	var bv *blockstore.BlockVersions
	err := t.child(parent, "decode", func() error {
		var err error
		bv, err = t.e.twin.DecodeReads(seqs, block)
		return err
	})
	t.decoded++
	t.carried += carried
	if err != nil {
		if errors.Is(err, blockstore.ErrInsufficientCoverage) || errors.Is(err, blockstore.ErrRSMarginExceeded) {
			t.replayFailed++
			return nil
		}
		return fmt.Errorf("replay decode of block %d: %w", block, err)
	}
	// DecodeReads serves whatever versions it decoded: a read set that
	// missed the newest update unit yields stale content and no error.
	// Such a replay is counted and reported, and its bytes are not
	// compared; a complete one must match the model exactly.
	versions := t.e.part.Versions(block)
	for v := 0; v <= versions; v++ {
		if _, ok := bv.Decode.Versions[v]; !ok {
			t.replayStale++
			fmt.Fprintf(os.Stderr, "replay of block %d: no error, but version %d of %d missing (stale content)\n", block, v, versions)
			return nil
		}
	}
	var content []byte
	if err := t.child(parent, "update", func() error {
		var err error
		content, err = update.ApplyAll(bv.Data, bv.Patches)
		return err
	}); err != nil {
		return fmt.Errorf("replay patches of block %d: %w", block, err)
	}
	t.patches += len(bv.Patches)
	if want := t.e.model[block]; !bytes.Equal(content, want) {
		return wrongBytes("replayed read", block, content, want)
	}
	return nil
}

// replayBlock replays a ReadBlock: elongated primer, PCR, sequencing,
// decode, patches.
func (t *tracer) replayBlock(parent, block int) error {
	e := t.e
	t.replays++
	var fwd dna.Seq
	if err := t.child(parent, "indextree", func() error {
		var err error
		fwd, err = e.part.ElongatedPrimer(block)
		return err
	}); err != nil {
		return err
	}
	amp, err := t.react(parent, fwd)
	if err != nil {
		return err
	}
	seqs, err := t.sequence(parent, amp, 1+e.part.Versions(block))
	if err != nil {
		return err
	}
	return t.decodeBlock(parent, seqs, block, 1)
}

// replayRange replays a ReadRange: the prefix cover, then per cover one
// PCR and one sequencing run at the cover's budget. Each cover's read
// set is decoded once, for its first block: the batch decode clusters
// the whole read set whichever block it targets.
func (t *tracer) replayRange(parent, lo, hi int) error {
	e := t.e
	t.replays++
	var covers []indextree.CoverRange
	if err := t.child(parent, "indextree", func() error {
		var err error
		covers, err = e.part.Tree().Cover(lo, hi)
		return err
	}); err != nil {
		return err
	}
	fwd, _ := e.part.Primers()
	geo := e.store.Config().Geometry
	for _, c := range covers {
		units := 0
		for b := c.Lo; b <= c.Hi; b++ {
			if _, ok := e.model[b]; ok {
				units += 1 + e.part.Versions(b)
			}
		}
		if units == 0 {
			continue
		}
		amp, err := t.react(parent, geo.ElongatedPrimer(fwd, c.Prefix))
		if err != nil {
			return err
		}
		seqs, err := t.sequence(parent, amp, units)
		if err != nil {
			return err
		}
		if err := t.decodeBlock(parent, seqs, c.Lo, c.Hi-c.Lo+1); err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics computes the per-layer metrics of the traced run.
func (t *tracer) layerMetrics(m map[string]metric, r *runner, gc runtimeSample) {
	end := t.probe()
	all := deltas(t.first, end)
	readCalls, readWall, readPCR := 0.0, 0.0, 0.0
	for _, name := range []string{"ReadBlockVersions", "ReadRange", "ReadBlocksSupervised", "ReadRangeSupervised"} {
		readCalls += float64(t.calls[name])
		readWall += t.callWall[name].Seconds()
		readPCR += t.sums[name+".pcr"]
	}
	publicWall := 0.0
	for _, d := range t.callWall {
		publicWall += d.Seconds()
	}
	replayed := 0.0
	for _, d := range t.layer {
		replayed += d.Seconds()
	}
	blocks := float64(r.blocks)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	set("indextree.cover_us_per_op", ratio(t.layer["indextree"].Seconds()*1e6, float64(t.replays)), "us")
	set("indextree.reactions_per_op", ratio(readPCR, readCalls), "count")
	set("pcr.ms_per_reaction", ratio(t.layer["pcr"].Seconds()*1e3, float64(t.reactions)), "ms")
	set("pcr.share", ratio(t.layer["pcr"].Seconds(), readWall), "ratio")
	bindAll := all["bind_row_hits"] + all["bind_hits"] + all["bind_misses"]
	set("binding.hit_rate", ratio(all["bind_row_hits"]+all["bind_hits"], bindAll), "ratio")
	set("binding.row_hit_rate", ratio(all["bind_row_hits"], bindAll), "ratio")
	set("binding.evictions_per_op", ratio(all["bind_evictions"], float64(t.ops)), "count")
	set("pool.species", float64(end.species), "count")
	set("pool.amplified_species_per_reaction", ratio(float64(t.ampSpecies), float64(t.reactions)), "count")
	draws := all["seq_reads"] + all["ejected"]
	set("seqsim.ms_per_op", ratio(t.layer["seqsim"].Seconds()*1e3, float64(t.replays)), "ms")
	set("seqsim.draws_per_block", ratio(draws, blocks), "count")
	set("seqsim.ejected_frac", ratio(all["ejected"], draws), "ratio")
	set("streamdecode.kept_per_block", ratio(all["kept"], blocks), "count")
	set("streamdecode.residue_frac", ratio(all["residue"], all["kept"]), "ratio")
	set("streamdecode.finalize_jobs_per_op", ratio(all["finalize_jobs"], readCalls), "count")
	set("streamdecode.discard_frac", ratio(all["finalize_discard"], all["finalize_jobs"]), "ratio")
	set("decode.ms_per_block", ratio(t.layer["decode"].Seconds()*1e3, float64(t.carried)), "ms")
	set("decode.fail_coverage", ratio(float64(r.failCov), float64(r.calls)), "ratio")
	set("decode.fail_rs_margin", ratio(float64(r.failRS), float64(r.calls)), "ratio")
	set("decode.fail_stale", ratio(float64(r.failStale), float64(r.calls)), "ratio")
	set("decode.replay_fail_frac", ratio(float64(t.replayFailed), float64(t.decoded)), "ratio")
	set("decode.replay_stale_frac", ratio(float64(t.replayStale), float64(t.decoded)), "ratio")
	set("update.apply_us_per_read", ratio(t.layer["update"].Seconds()*1e6, float64(t.replays)), "us")
	set("update.patches_per_read", ratio(float64(t.patches), float64(t.decoded)), "count")
	set("blockstore.overflow_reactions_per_read",
		ratio(t.sums["ReadBlockVersions.pcr"]-float64(t.calls["ReadBlockVersions"]), float64(t.calls["ReadBlockVersions"])), "count")
	set("blockstore.apply_ms_per_batch", ratio(t.callWall["Batch.Apply"].Seconds()*1e3, float64(t.calls["Batch.Apply"])), "ms")
	set("blockstore.strands_per_batch", ratio(t.sums["Batch.Apply.strands"], float64(t.calls["Batch.Apply"])), "count")
	dst := end.decay
	set("decay.advance_s", t.e.advance.Seconds(), "s")
	set("decay.mutants", float64(dst.MutantSpecies), "count")
	set("decay.strands_lost", dst.StrandsLost, "count")
	set("scrub.pass_s", median(r.scrubS), "s")
	set("scrub.flagged_frac", ratio(float64(t.scrubFlagged), float64(t.scrubProbed)), "ratio")
	set("scrub.repaired_per_flagged", ratio(float64(t.scrubRepaired), float64(t.scrubFlagged)), "ratio")
	set("scrub.resyntheses", float64(t.scrubResynth), "count")
	set("scrub.boosts", float64(t.scrubBoosts), "count")
	set("gc.cycles_per_op", ratio(float64(gc.cycles), float64(t.ops)), "count")
	set("gc.pause_ms_per_op", ratio(float64(gc.pauseNs)/1e6, float64(t.ops)), "ms")
	set("alloc_mb_per_op", ratio(float64(gc.allocBytes)/(1<<20), float64(t.ops)), "MiB")
	set("trace.coverage_frac", ratio(replayed, readWall), "ratio")
	set("trace.overhead_frac", ratio(t.overhead.Seconds(), publicWall), "ratio")
	set("trace.ops", float64(t.ops), "count")
}

// writeSpans writes the run's spans, one JSON object per line.
func (t *tracer) writeSpans(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
