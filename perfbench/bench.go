package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"dnastore/internal/blockstore"
	"dnastore/internal/decay"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// Set-up builds the tube from the seed and warms it up setupRuns
// times; setup_s is the median, so a few slow builds cannot move it. The
// last tube built is the one the timed phase drives. The warm-up reads
// warmupReads blocks, which runs every lazily initialized path of a
// read (reaction tables, sampler, streaming engine, decoder) before
// the clock starts.
const (
	setupRuns   = 5
	warmupReads = 3
)

// env is one built tube: the store under test, the partition the
// workload drives, and the reference model of that partition's
// current contents.
type env struct {
	store *blockstore.Store
	part  *blockstore.Partition
	model map[int][]byte
	// updates counts the patches committed to each block of part: the
	// version a client that made them expects a read to return.
	updates map[int]int
	// userBytes counts user data committed to the store: block writes
	// plus patch inserts, every partition included.
	userBytes int
	// nextWrite is the next never-written block update-churn fills;
	// hotOffset and hotNext place its round-robin hot-set patches.
	nextWrite          int
	hotOffset, hotNext int
	// advanceAt, advance and aged record the setup's Advance call
	// (aged-scrub): when it started, how long it took, what it did.
	advanceAt time.Time
	advance   time.Duration
	aged      decay.Stats
	// twin is an identical store built from the same seed, traced runs
	// only: the replay decodes on its partition so the store under test
	// keeps exactly the noise, cache and cost state of an untraced run.
	twin *blockstore.Partition
}

// maxAttempts bounds the calls of one read request. A client of the
// store retries a read that ends in a typed error through the store's
// recovery engine (the supervised read: strict coverage floors and
// depth escalation), as a weak block — one whose strands came out of
// synthesis thin — fails a plain read now and then.
const maxAttempts = 3

// runner drives one workload's operations and accumulates what they
// did. All fields are owned by the single closed-loop caller.
type runner struct {
	e   *env
	ops *rng.Source // operation choices, derived from the seed
	tr  *tracer     // nil in untraced runs

	readMS []float64 // wall time of each read request, retries included
	scrubS []float64 // wall time of each scrub pass
	blocks int       // verified blocks returned (plus scrub probes)

	// end is when the timed phase may stop; mayStop is set while the
	// current operation lies beyond the exact-count prefix, so a long
	// cycle may stop between its calls instead of overrunning the end.
	end     time.Time
	mayStop bool

	// requests counts operations (read requests, batches, scrub
	// passes); failed counts those that did not succeed, retries
	// included. calls counts public calls, callFails the calls that
	// ended in a typed error, split by class.
	requests, failed                      int
	calls, callFails                      int
	failCov, failRS, failStale, failOther int
}

// snapshot is the runner's and the store's cumulative counters at one
// instant.
type snapshot struct {
	costs                    blockstore.Costs
	blocks, calls, callFails int
	userBytes                int
}

func (r *runner) snap() snapshot {
	return snapshot{r.e.store.Costs(), r.blocks, r.calls, r.callFails, r.e.userBytes}
}

// expired reports whether the timed phase is over.
func (r *runner) expired() bool { return !r.end.IsZero() && time.Now().After(r.end) }

// stopEarly reports whether a cycle may stop before its next call.
func (r *runner) stopEarly() bool { return r.mayStop && r.expired() }

// failCall classifies a call that ended in an error.
func (r *runner) failCall(err error) {
	r.callFails++
	switch {
	case errors.Is(err, errStale):
		r.failStale++
	case errors.Is(err, blockstore.ErrInsufficientCoverage):
		r.failCov++
	case errors.Is(err, blockstore.ErrRSMarginExceeded):
		r.failRS++
	default:
		r.failOther++
	}
}

// errStale marks a block read whose decode carries a different number
// of patches than the client has committed to the block. The store
// serves such a read without an error (it applies whatever versions the
// decode recovered); the client, which knows the version it last wrote,
// refuses it before looking at its bytes and retries it like a typed
// failure.
var errStale = errors.New("decoded patches differ from the updates committed")

// wrongBytes is returned when the store hands back content that differs
// from the model without an error: the run aborts, it is never a metric.
func wrongBytes(op string, block int, got, want []byte) error {
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	return fmt.Errorf("%s returned wrong bytes for block %d without an error: first difference at byte %d (got %d bytes, want %d)",
		op, block, at, len(got), len(want))
}

// read runs one read request of blocks lo..hi: a plain call, then up
// to maxAttempts-1 supervised calls while the previous one ended in an
// error. Every returned byte is checked against the model. A traced run
// replays each call.
func (r *runner) read(names [2]string, lo, hi int, plain, supervised func() ([][]byte, error), replay func(parent int) error) error {
	r.requests++
	t0 := time.Now()
	for attempt := 1; ; attempt++ {
		name, call := names[0], plain
		if attempt > 1 {
			name, call = names[1], supervised
		}
		var before probe
		if r.tr != nil {
			before = r.tr.before()
		}
		c0 := time.Now()
		got, err := call()
		d := time.Since(c0)
		r.calls++
		if r.tr != nil {
			id := r.tr.call(name, c0, d, before, err)
			if rerr := replay(id); rerr != nil {
				return rerr
			}
		}
		if err != nil {
			r.failCall(err)
			fmt.Fprintf(os.Stderr, "%s(%d, %d) attempt %d: %v\n", name, lo, hi, attempt, err)
			if attempt == maxAttempts {
				r.failed++
				r.readMS = append(r.readMS, ms(time.Since(t0)))
				return nil
			}
			continue
		}
		r.readMS = append(r.readMS, ms(time.Since(t0)))
		if len(got) != hi-lo+1 {
			return fmt.Errorf("%s(%d, %d) returned %d blocks", name, lo, hi, len(got))
		}
		for i, data := range got {
			if want := r.e.model[lo+i]; !bytes.Equal(data, want) {
				return wrongBytes(name, lo+i, data, want)
			}
		}
		r.blocks += len(got)
		return nil
	}
}

// supervisedResult folds a supervised read's per-block health into one
// error: the first block the recovery engine could not read back.
func supervisedResult(content [][]byte, health []blockstore.Health, _ *blockstore.RecoveryReport, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	for _, h := range health {
		if h.Err != nil {
			return nil, fmt.Errorf("block %d: %w", h.Block, h.Err)
		}
	}
	return content, nil
}

// readBlock reads one block: ReadBlockVersions, checked for the number
// of updates committed and patched with update.ApplyAll (the body of
// ReadBlock), falling back to ReadBlocksSupervised.
func (r *runner) readBlock(block int) error {
	p := r.e.part
	return r.read([2]string{"ReadBlockVersions", "ReadBlocksSupervised"}, block, block,
		func() ([][]byte, error) {
			bv, err := p.ReadBlockVersions(block)
			if err != nil {
				return nil, err
			}
			if want := r.e.updates[block]; len(bv.Patches) != want {
				return nil, fmt.Errorf("%w: block %d decoded %d patches, %d committed", errStale, block, len(bv.Patches), want)
			}
			got, err := update.ApplyAll(bv.Data, bv.Patches)
			return [][]byte{got}, err
		},
		func() ([][]byte, error) { return supervisedResult(p.ReadBlocksSupervised([]int{block})) },
		func(parent int) error { return r.tr.replayBlock(parent, block) })
}

// readRange reads blocks lo..hi in one ranged access: ReadRange,
// falling back to ReadRangeSupervised.
func (r *runner) readRange(lo, hi int) error {
	p := r.e.part
	return r.read([2]string{"ReadRange", "ReadRangeSupervised"}, lo, hi,
		func() ([][]byte, error) { return p.ReadRange(lo, hi) },
		func() ([][]byte, error) { return supervisedResult(p.ReadRangeSupervised(lo, hi)) },
		func(parent int) error { return r.tr.replayRange(parent, lo, hi) })
}

// batchOp is one staged write (patch == nil) or update.
type batchOp struct {
	block int
	data  []byte
	patch *update.Patch
}

// stage stages ops on a new batch of p.
func stage(p *blockstore.Partition, ops []batchOp) *blockstore.Batch {
	b := p.Batch()
	for _, op := range ops {
		if op.patch == nil {
			b.Write(op.block, op.data)
		} else {
			b.Update(op.block, *op.patch)
		}
	}
	return b
}

// applyBatch commits ops as one Batch and, on success, folds them into
// the model. A traced run applies the same batch to the twin.
func (r *runner) applyBatch(ops []batchOp) error {
	b := stage(r.e.part, ops)
	var before probe
	if r.tr != nil {
		before = r.tr.before()
	}
	t0 := time.Now()
	err := b.Apply()
	d := time.Since(t0)
	r.requests++
	r.calls++
	if r.tr != nil {
		r.tr.call("Batch.Apply", t0, d, before, err)
	}
	if err != nil {
		r.failCall(err)
		r.failed++
		return nil
	}
	if r.e.updates == nil {
		r.e.updates = map[int]int{}
	}
	for _, op := range ops {
		if op.patch == nil {
			r.e.model[op.block] = append([]byte(nil), op.data...)
			r.e.updates[op.block] = 0
			r.e.userBytes += len(op.data)
			continue
		}
		r.e.model[op.block] = modelPatch(r.e.model[op.block], *op.patch)
		r.e.updates[op.block]++
		r.e.userBytes += len(op.patch.Insert)
	}
	if r.e.twin != nil {
		if err := stage(r.e.twin, ops).Apply(); err != nil {
			return fmt.Errorf("twin batch: %w", err)
		}
	}
	return nil
}

// modelPatch is the reference model's own reading of a patch: delete
// DeleteCount bytes at DeleteStart, then insert at InsertPos. It is
// written independently of update.Patch.Apply so the oracle does not
// share the code it checks.
func modelPatch(block []byte, p update.Patch) []byte {
	out := make([]byte, 0, len(block)+len(p.Insert))
	out = append(out, block[:p.DeleteStart]...)
	out = append(out, block[p.DeleteStart+p.DeleteCount:]...)
	tail := append([]byte(nil), out[p.InsertPos:]...)
	out = append(append(out[:p.InsertPos], p.Insert...), tail...)
	return out
}

// scrub runs one scrub pass. Probed blocks count as delivered; a pass
// that errors or leaves a block unrepaired is a failed operation.
func (r *runner) scrub() error {
	var before probe
	if r.tr != nil {
		before = r.tr.before()
	}
	t0 := time.Now()
	rep, err := r.e.store.Scrub(blockstore.DefaultScrubPolicy())
	d := time.Since(t0)
	r.requests++
	r.calls++
	r.scrubS = append(r.scrubS, d.Seconds())
	if r.tr != nil {
		id := r.tr.call("Scrub", t0, d, before, err)
		r.tr.scrubReport(id, rep)
	}
	if err == nil && rep.Failed > 0 {
		err = fmt.Errorf("scrub left %d blocks unrepaired: %w", rep.Failed, rep.Flagged[0].Err)
	}
	if err != nil {
		r.failCall(err)
		r.failed++
		return nil
	}
	r.blocks += rep.BlocksProbed
	return nil
}

// runWorkload builds the workload's tube, warms it up, runs the timed
// phase and returns the metrics: end-to-end ones untraced, per-layer
// ones traced.
func runWorkload(w *workload, seed uint64, seconds float64, traced bool, spanDir string, log io.Writer) (*result, error) {
	refBefore := machineRef()
	setups := make([]float64, 0, setupRuns)
	var e *env
	for i := 0; i < setupRuns; i++ {
		// Each set-up run starts from a collected heap, so the previous
		// run's tube is neither live nor garbage while this one builds.
		e = nil
		runtime.GC()
		t0 := time.Now()
		built, err := w.build(seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		warm := &runner{e: built}
		for b := 0; b < warmupReads; b++ {
			if err := warm.readBlock(b); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		e = built
	}
	setupS := median(setups)
	fmt.Fprintf(log, "setup runs %.4f s\n", setups)
	r := &runner{e: e, ops: rng.New(seed ^ 0x6f7073)}
	if traced {
		twin, err := w.build(seed)
		if err != nil {
			return nil, fmt.Errorf("%s twin setup: %w", w.name, err)
		}
		e.twin = twin.part
		if r.tr, err = newTracer(e); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	gc0 := readRuntime()
	start := r.snap()
	var exact snapshot
	deadline := time.Duration(seconds * float64(time.Second))
	t0 := time.Now()
	if r.tr != nil {
		r.tr.begin(t0)
	}
	ops := 0
	r.end = t0.Add(deadline)
	for ; ops < w.exactOps || !r.expired(); ops++ {
		r.mayStop = ops >= w.exactOps
		if err := w.op(r, ops); err != nil {
			return nil, fmt.Errorf("%s op %d: %w", w.name, ops, err)
		}
		if ops == w.exactOps-1 {
			exact = r.snap()
		}
	}
	wall := time.Since(t0).Seconds()
	gc1 := readRuntime()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	refAfter := machineRef()
	fmt.Fprintf(log, "timed phase %.3f s, %d ops, %d requests (%d failed), %d calls; machine.ref_ms before %.3f after %.3f\n",
		wall, ops, r.requests, r.failed, r.calls, refBefore, refAfter)

	res := &result{Correct: true, Attempted: r.requests, Failed: r.failed, Metrics: map[string]metric{}}
	res.Exact = exactCounts(start, exact)
	if !traced {
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["read_p50_ms"] = metric{quantile(r.readMS, 0.5), "ms"}
		res.Metrics["blocks_per_s"] = metric{float64(r.blocks) / wall, "1/s"}
		res.Metrics["seq_reads_per_block"] = metric{res.Exact["seq_reads_per_block"], "count"}
		res.Metrics["pcr_per_block"] = metric{res.Exact["pcr_per_block"], "count"}
		res.Metrics["synth_strands_per_kib"] = metric{res.Exact["synth_strands_per_kib"], "count"}
		res.Metrics["heap_mb"] = metric{float64(mem.HeapAlloc) / (1 << 20), "MiB"}
		fmt.Fprintf(log, "fail_frac %.6f ratio (exact prefix; whole run: %d of %d calls, coverage %d, rs-margin %d, stale %d, other %d)\n",
			res.Exact["fail_frac"], r.callFails, r.calls, r.failCov, r.failRS, r.failStale, r.failOther)
		fmt.Fprintf(log, "read_p90_ms %.4f ms over %d read samples (not gated); scrub_pass_s %.4f s over %d passes\n",
			quantile(r.readMS, 0.9), len(r.readMS), median(r.scrubS), len(r.scrubS))
		return res, nil
	}
	r.tr.layerMetrics(res.Metrics, r, gc0.delta(gc1))
	res.Metrics["machine.ref_ms"] = metric{(refBefore + refAfter) / 2, "ms"}
	if err := r.tr.writeSpans(spanDir, w.name, seed); err != nil {
		return nil, err
	}
	return res, nil
}

// exactCounts derives the counts that repeat exactly for one seed. They
// cover the first exactOps operations of the timed phase, a fixed
// prefix, so how many operations a machine fits into the timed phase
// never changes them. synth_strands_per_kib is cumulative over the
// store's life, setup included.
func exactCounts(start, end snapshot) map[string]float64 {
	blocks := float64(end.blocks - start.blocks)
	out := map[string]float64{
		"blocks":                blocks,
		"seq_reads":             float64(end.costs.ReadsSequenced - start.costs.ReadsSequenced),
		"pcr":                   float64(end.costs.PCRReactions - start.costs.PCRReactions),
		"strands":               float64(end.costs.StrandsSynthesized),
		"user_kib":              float64(end.userBytes) / 1024,
		"calls":                 float64(end.calls - start.calls),
		"failed_calls":          float64(end.callFails - start.callFails),
		"synth_strands_per_kib": float64(end.costs.StrandsSynthesized) / (float64(end.userBytes) / 1024),
	}
	out["seq_reads_per_block"] = out["seq_reads"] / blocks
	out["pcr_per_block"] = out["pcr"] / blocks
	out["fail_frac"] = out["failed_calls"] / out["calls"]
	return out
}

// machineRef times a fixed standard-library computation — SHA-256 over
// a constant 8 MiB buffer — as a drift probe: it moves when the
// machine slows, never when the program does.
func machineRef() float64 {
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	t0 := time.Now()
	refSum = sha256.Sum256(buf)
	return ms(time.Since(t0))
}

// refSum keeps machineRef's digest live.
var refSum [32]byte

// runtimeSample is the runtime's GC and allocation counters.
type runtimeSample struct {
	cycles, allocBytes uint64
	pauseNs            uint64
}

func (a runtimeSample) delta(b runtimeSample) runtimeSample {
	return runtimeSample{b.cycles - a.cycles, b.allocBytes - a.allocBytes, b.pauseNs - a.pauseNs}
}

// readRuntime reads GC cycles and allocated bytes through
// runtime/metrics, and total GC pause time from MemStats (the metrics
// package exposes pauses only as a histogram).
func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), mem.PauseTotalNs}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
