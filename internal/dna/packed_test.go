package dna

import (
	"bytes"
	"testing"

	"dnastore/internal/rng"
)

func TestPackedRoundTrip(t *testing.T) {
	r := rng.New(41)
	for i := 0; i < 300; i++ {
		s := randomSeq(r, r.Intn(200))
		p := Pack(s)
		if p.Len() != len(s) {
			t.Fatalf("len %d want %d", p.Len(), len(s))
		}
		if got := p.Unpack(); !got.Equal(s) {
			t.Fatalf("round trip: got %v want %v", got, s)
		}
		for j := range s {
			if p.At(j) != s[j] {
				t.Fatalf("At(%d) = %v want %v (len %d)", j, p.At(j), s[j], len(s))
			}
		}
	}
}

func TestPackedEqual(t *testing.T) {
	a := Pack(MustFromString("ACGTACG"))
	b := Pack(MustFromString("ACGTACG"))
	c := Pack(MustFromString("ACGTACT"))
	d := Pack(MustFromString("ACGTAC"))
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Errorf("Equal: %v %v %v", a.Equal(b), a.Equal(c), a.Equal(d))
	}
}

// packKey is the key layout package pool relies on: Pack's packed
// bytes followed by the len%4 marker. The pool hashes and compares its
// arena spans (Pack's bytes) against AppendPacked keys minus the
// marker, so the two must agree byte for byte.
func packKey(s Seq) []byte {
	return append(append([]byte(nil), Pack(s).Bytes()...), byte(len(s)&3))
}

// TestAppendPackedMatchesPackKey pins the key builder to Pack's byte
// layout plus the length marker, the property package pool relies on.
func TestAppendPackedMatchesPackKey(t *testing.T) {
	r := rng.New(42)
	for i := 0; i < 200; i++ {
		s := randomSeq(r, r.Intn(100))
		k1 := AppendPacked(nil, s)
		k2 := packKey(s)
		if !bytes.Equal(k1, k2) {
			t.Fatalf("key mismatch for %v: % x vs % x", s, k1, k2)
		}
	}
}

// TestAppendPackedInjective verifies distinct sequences yield distinct
// keys across a dense enumeration of short sequences, where collisions
// between different lengths would be most likely.
func TestAppendPackedInjective(t *testing.T) {
	seen := make(map[string]string)
	var walk func(s Seq)
	walk = func(s Seq) {
		key := string(AppendPacked(nil, s))
		if prev, dup := seen[key]; dup {
			t.Fatalf("key collision: %q vs %q", prev, s.String())
		}
		seen[key] = s.String()
		if len(s) == 6 {
			return
		}
		for b := Base(0); b < NumBases; b++ {
			walk(append(s, b))
		}
	}
	walk(make(Seq, 0, 6))
}

func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte("ACGT"))
	f.Add([]byte("A"))
	f.Add([]byte(""))
	f.Add([]byte("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTGCA"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := make(Seq, len(raw))
		for i, b := range raw {
			s[i] = Base(b & 3)
		}
		p := Pack(s)
		if got := p.Unpack(); !got.Equal(s) {
			t.Fatalf("round trip: got %v want %v", got, s)
		}
		if !bytes.Equal(AppendPacked(nil, s), packKey(s)) {
			t.Fatal("AppendPacked disagrees with Pack's bytes plus the len%4 marker")
		}
	})
}
