package dna

// This file implements the 2-bit packed sequence representation: four
// bases per byte, which quarters the memory of a Seq and makes
// equality/hashing 4x cheaper. Its byte layout is the species-key
// codec package pool has used for its map since PR 2 — AppendPacked is
// the pool's allocation-free key builder, and Packed is the same
// encoding materialized as a value (the round-trip is fuzz-pinned in
// packed_test.go, which is what keeps the key codec honest).

// Packed is an immutable 2-bit packed DNA sequence: four bases per
// byte, first base of each group in the byte's high bits, with a
// trailing partial byte holding len%4 bases in its low bits. The zero
// value is the empty sequence.
type Packed struct {
	b []byte
	n int
}

// appendPackedBytes appends the 2-bit packing of seq (without the
// length marker) to buf.
func appendPackedBytes(buf []byte, seq Seq) []byte {
	var acc byte
	nb := 0
	for _, b := range seq {
		acc = acc<<2 | byte(b)
		nb++
		if nb == 4 {
			buf = append(buf, acc)
			acc, nb = 0, 0
		}
	}
	if nb > 0 {
		buf = append(buf, acc)
	}
	return buf
}

// Pack returns the 2-bit packed form of seq.
func Pack(seq Seq) Packed {
	return Packed{b: appendPackedBytes(make([]byte, 0, (len(seq)+3)/4), seq), n: len(seq)}
}

// PackedView returns a Packed sequence of n bases viewing b without
// copying. b must hold the 2-bit packing of exactly n bases — the bytes
// Pack produces, or an AppendPacked key minus its trailing marker
// byte — and must not be modified while the view is reachable.
// It is how pool hands out zero-copy sequence views of its arena.
func PackedView(b []byte, n int) Packed {
	if (n+3)/4 != len(b) || n < 0 {
		panic("dna: PackedView length mismatch")
	}
	return Packed{b: b, n: n}
}

// Bytes returns the packed byte payload backing p, without any length
// marker. Callers must treat it as read-only; for views it aliases the
// original storage.
func (p Packed) Bytes() []byte { return p.b }

// Len returns the number of bases.
func (p Packed) Len() int { return p.n }

// At returns the i-th base. It panics if i is out of range.
func (p Packed) At(i int) Base {
	if i < 0 || i >= p.n {
		panic("dna: Packed index out of range")
	}
	g, r := i/4, i%4
	width := 4
	if g == p.n/4 { // final partial byte: n%4 bases in the low bits
		width = p.n % 4
	}
	return Base(p.b[g] >> (2 * uint(width-1-r)) & 3)
}

// Unpack expands the packed sequence back to a Seq.
func (p Packed) Unpack() Seq {
	out := make(Seq, p.n)
	for g := 0; g*4 < p.n; g++ {
		width := p.n - g*4
		if width > 4 {
			width = 4
		}
		acc := p.b[g]
		for r := width - 1; r >= 0; r-- {
			out[g*4+r] = Base(acc & 3)
			acc >>= 2
		}
	}
	return out
}

// AppendRange appends bases [from, to) of p to dst and returns the
// extended slice, decoding straight from the packed bytes without
// materializing the rest of the sequence. It is the ranged form of
// Unpack used for zero-copy consumers that need only a prefix, suffix
// or payload window of an arena-resident sequence.
func (p Packed) AppendRange(dst Seq, from, to int) Seq {
	if from < 0 || to > p.n || from > to {
		panic("dna: Packed range out of bounds")
	}
	for i := from; i < to; {
		g := i / 4
		width := p.n - g*4
		if width > 4 {
			width = 4
		}
		acc := p.b[g]
		end := g*4 + width
		if end > to {
			end = to
		}
		for r := i - g*4; g*4+r < end; r++ {
			dst = append(dst, Base(acc>>(2*uint(width-1-r))&3))
		}
		i = end
	}
	return dst
}

// AppendText appends the sequence's ACGT text to dst, byte for byte
// what Seq.String would produce, without materializing a Seq.
func (p Packed) AppendText(dst []byte) []byte {
	const baseText = "ACGT"
	for g := 0; g*4 < p.n; g++ {
		width := p.n - g*4
		if width > 4 {
			width = 4
		}
		acc := p.b[g]
		for r := 0; r < width; r++ {
			dst = append(dst, baseText[acc>>(2*uint(width-1-r))&3])
		}
	}
	return dst
}

// Equal reports whether two packed sequences are identical.
func (p Packed) Equal(q Packed) bool {
	if p.n != q.n {
		return false
	}
	for i, b := range p.b {
		if q.b[i] != b {
			return false
		}
	}
	return true
}

// AppendPacked appends seq's packed map-key encoding to buf without
// materializing a Packed value: the packed bytes followed by a len%4
// marker. It is the allocation-free key builder used by the pool's
// species index. Two distinct sequences never produce equal keys:
// equal keys force equal packed lengths and equal length-mod-4, hence
// equal base counts, hence equal bases. AppendPacked(nil, s) equals
// Pack(s)'s bytes plus that marker, byte for byte.
func AppendPacked(buf []byte, seq Seq) []byte {
	return append(appendPackedBytes(buf, seq), byte(len(seq)&3))
}

// AppendPackedBytes appends seq's raw 2-bit packed bytes — no length
// framing — to buf, the arena builder for callers that track lengths
// themselves: PackedView over the appended (len(seq)+3)/4 bytes
// recovers the sequence.
func AppendPackedBytes(buf []byte, seq Seq) []byte {
	return appendPackedBytes(buf, seq)
}
