// Package mix implements the two physical mixing protocols of
// Section 6.4.2 that combine an original data pool with a separately
// synthesized update pool whose per-molecule concentration may differ by
// orders of magnitude (50000x in the paper's wetlab experiments).
//
// Both protocols aim for the same target (Section 5.5): after mixing,
// the average number of copies per distinct molecule should be as
// similar as possible between the original and update species, because
// any mismatch directly multiplies the sequencing cost.
package mix

import (
	"fmt"

	"dnastore/internal/pcr"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
)

// Options configures a mixing protocol run.
type Options struct {
	// MeasurementCV is the coefficient of variation of concentration
	// measurements (the nanodrop's precision).
	MeasurementCV float64
	// Primers are the partition's main primers used for amplification
	// steps (both pools carry the same pair).
	Primers []pcr.Primer
	// PCR holds reaction parameters for the amplification steps. The
	// paper uses 15 cycles for these (Section 6.4.2). Capacity applies
	// per reaction. PCR.Provider, when set (blockstore installs the
	// store's binding cache into its Config().PCR), shares the
	// compiled primer patterns with the store's other reactions. The
	// pools mixed here are clones of the tube with fresh identities, so
	// each reaction aligns its species itself: the cache's rows are
	// addressed by pool identity, not by sequence.
	PCR pcr.Params
}

// Result reports the outcome of a protocol.
type Result struct {
	Mixed *pool.Pool
	// OriginalPerStrand and UpdatePerStrand are the realized average
	// copies per distinct molecule in the mixed pool.
	OriginalPerStrand float64
	UpdatePerStrand   float64
}

// Imbalance returns the per-molecule concentration ratio between the
// over- and under-represented side (>= 1). Figure 10 shows this staying
// around 1-2x despite the 50000x vendor gap.
func (r Result) Imbalance() float64 {
	a, b := r.OriginalPerStrand, r.UpdatePerStrand
	if a == 0 || b == 0 {
		return 0
	}
	if a < b {
		a, b = b, a
	}
	return a / b
}

func perStrand(p *pool.Pool, uniques int) float64 {
	if uniques == 0 {
		return 0
	}
	return p.Total() / float64(uniques)
}

func summarize(mixed *pool.Pool) Result {
	res := Result{Mixed: mixed}
	var origMass, updMass float64
	var origN, updN int
	for i, n := 0, mixed.Len(); i < n; i++ {
		if mixed.MetaAt(i).Version > 0 {
			updMass += mixed.Abundance(i)
			updN++
		} else {
			origMass += mixed.Abundance(i)
			origN++
		}
	}
	if origN > 0 {
		res.OriginalPerStrand = origMass / float64(origN)
	}
	if updN > 0 {
		res.UpdatePerStrand = updMass / float64(updN)
	}
	return res
}

func validate(orig, upd *pool.Pool, origUniques, updUniques int, opt Options) error {
	if orig.Len() == 0 || upd.Len() == 0 {
		return fmt.Errorf("mix: empty pool")
	}
	if origUniques <= 0 || updUniques <= 0 {
		return fmt.Errorf("mix: non-positive unique counts %d/%d", origUniques, updUniques)
	}
	if len(opt.Primers) == 0 {
		return fmt.Errorf("mix: no amplification primers")
	}
	return nil
}

// MeasureThenAmplify implements the first protocol: measure both
// unamplified pools, dilute the update pool so that its per-molecule
// concentration matches the original pool, combine, then amplify the mix
// with the main partition primers.
func MeasureThenAmplify(r *rng.Source, orig, upd *pool.Pool, origUniques, updUniques int, opt Options) (Result, error) {
	if err := validate(orig, upd, origUniques, updUniques, opt); err != nil {
		return Result{}, err
	}
	origMeasured := orig.Measure(r, opt.MeasurementCV)
	updMeasured := upd.Measure(r, opt.MeasurementCV)
	if origMeasured <= 0 || updMeasured <= 0 {
		return Result{}, fmt.Errorf("mix: measurement returned zero concentration")
	}
	// Dilution factor equalizes copies-per-unique-molecule.
	origPer := origMeasured / float64(origUniques)
	updPer := updMeasured / float64(updUniques)
	dilution := origPer / updPer

	mixed := orig.Clone()
	mixed.MixInto(upd, dilution)

	params := opt.PCR
	if params.Capacity <= 0 {
		params.Capacity = mixed.Total() * 50
	}
	amplified, _, err := pcr.Run(mixed, opt.Primers, params)
	if err != nil {
		return Result{}, err
	}
	return summarize(amplified), nil
}

// AmplifyThenMeasure implements the second protocol, for the case where
// the original synthesized pools are no longer available: amplify each
// pool separately with the main primers, clean up, measure the amplified
// concentrations, and mix "in concentrations proportionate to the number
// of unique oligos in each pool" (Section 6.4.2).
func AmplifyThenMeasure(r *rng.Source, orig, upd *pool.Pool, origUniques, updUniques int, opt Options) (Result, error) {
	if err := validate(orig, upd, origUniques, updUniques, opt); err != nil {
		return Result{}, err
	}
	params := opt.PCR
	origParams := params
	if origParams.Capacity <= 0 {
		origParams.Capacity = orig.Total() * 100
	}
	ampOrig, _, err := pcr.Run(orig, opt.Primers, origParams)
	if err != nil {
		return Result{}, err
	}
	updParams := params
	if updParams.Capacity <= 0 {
		updParams.Capacity = upd.Total() * 100
	}
	ampUpd, _, err := pcr.Run(upd, opt.Primers, updParams)
	if err != nil {
		return Result{}, err
	}

	origMeasured := ampOrig.Measure(r, opt.MeasurementCV)
	updMeasured := ampUpd.Measure(r, opt.MeasurementCV)
	if origMeasured <= 0 || updMeasured <= 0 {
		return Result{}, fmt.Errorf("mix: measurement returned zero concentration")
	}
	// Mix so that total update mass : total original mass equals
	// updUniques : origUniques, which equalizes per-molecule copies.
	targetUpdMass := origMeasured * float64(updUniques) / float64(origUniques)
	factor := targetUpdMass / updMeasured

	mixed := ampOrig.Clone()
	mixed.MixInto(ampUpd, factor)
	return summarize(mixed), nil
}
