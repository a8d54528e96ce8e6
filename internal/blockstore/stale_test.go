package blockstore

import (
	"errors"
	"fmt"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/update"
)

// TestPlainReadsRefuseMissingVersion pins the stale-read fix: when a
// unit version the block was written with is gone from the tube, every
// plain read of the block fails with a typed coverage error instead of
// serving the block without that update. The first case loses block
// 3's second in-slot patch; the second loses the overflow-pointer slot
// of a block with three updates, which hides the patch in its log.
func TestPlainReadsRefuseMissingVersion(t *testing.T) {
	cases := []struct {
		block, version, extraUpdates int
	}{
		{block: 3, version: 2},
		{block: 5, version: directUpdateSlots + 1, extraUpdates: 3},
	}
	for _, tc := range cases {
		for _, streaming := range []bool{true, false} {
			cfg := testConfig()
			cfg.Decode.Streaming = streaming
			s, p := buildSeededWith(t, cfg)
			for i := 0; i < tc.extraUpdates; i++ {
				if err := p.UpdateBlock(tc.block, update.Patch{InsertPos: 0, Insert: []byte{byte('A' + i)}}); err != nil {
					t.Fatal(err)
				}
			}
			// Clean reads of every version below the lost one, taken
			// before it is zeroed.
			var clean []dna.Seq
			for v := 0; v < tc.version; v++ {
				for _, idx := range slotSpecies(s, "alice", tc.block, v) {
					for c := 0; c < 5; c++ {
						clean = append(clean, s.Tube().SeqAt(idx))
					}
				}
			}
			lost := slotSpecies(s, "alice", tc.block, tc.version)
			if len(lost) == 0 {
				t.Fatalf("block %d version %d has no species", tc.block, tc.version)
			}
			for _, idx := range lost {
				s.Tube().SetAbundance(idx, 0)
			}
			name := fmt.Sprintf("block %d version %d lost, streaming=%v", tc.block, tc.version, streaming)
			refused := func(call string, returned bool, err error) {
				t.Helper()
				if !errors.Is(err, ErrInsufficientCoverage) {
					t.Errorf("%s: %s returned err %v, want ErrInsufficientCoverage", name, call, err)
				}
				if returned {
					t.Errorf("%s: %s returned content", name, call)
				}
			}
			got, err := p.ReadBlock(tc.block)
			refused("ReadBlock", got != nil, err)
			blocks, err := p.ReadBlocks([]int{0, tc.block})
			refused("ReadBlocks", blocks != nil, err)
			bv, err := p.ReadBlockVersions(tc.block)
			refused("ReadBlockVersions", bv != nil, err)
			blocks, err = p.ReadRange(0, 11)
			refused("ReadRange(0, 11)", blocks != nil, err)
			blocks, err = p.ReadAll()
			refused("ReadAll", blocks != nil, err)
			bv, err = p.DecodeReads(clean, tc.block)
			refused("DecodeReads", bv != nil, err)
		}
	}
}
