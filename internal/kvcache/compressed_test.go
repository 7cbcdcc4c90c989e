package kvcache

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"zipserv/internal/bf16"
	"zipserv/internal/core"
	"zipserv/internal/weights"
)

// TestCompressedStoreAccountingChurn locks the unified byte accounting
// through insert / replace / delete churn across mixed geometries: the
// store's origBytes must equal the sum over live blocks of the sizes
// they were Put with, whatever order they were replaced or deleted in.
// The pre-fix code computed the insert side (kv.SizeBytes()) and the
// remove side (2*old.rows*old.cols) independently — numerically equal
// only by coincidence of the Matrix invariants, and with no accessor to
// observe the original footprint at all — so the aggregate could drift
// silently the moment either side's definition moved.
func TestCompressedStoreAccountingChurn(t *testing.T) {
	type op struct {
		del        bool
		id         int
		rows, cols int
	}
	steps := []op{
		{id: 1, rows: 16, cols: 256},
		{id: 2, rows: 64, cols: 64},
		{id: 3, rows: 128, cols: 8}, // 64-row-aligned but narrow
		{id: 1, rows: 7, cols: 33},  // replace with a different geometry
		{del: true, id: 2},
		{id: 2, rows: 0, cols: 5}, // zero-element insert
		{id: 2, rows: 3, cols: 3}, // replace the empty block
		{del: true, id: 9},        // absent delete is a no-op
		{del: true, id: 1},
		{del: true, id: 2},
		{del: true, id: 3},
	}
	s := NewCompressedStore()
	live := map[int]int64{} // id -> logical bytes Put
	seed := int64(1)
	for i, o := range steps {
		if o.del {
			s.Delete(o.id)
			delete(live, o.id)
		} else {
			kv := weights.Gaussian(o.rows, o.cols, 1.0, seed)
			seed++
			if err := s.Put(o.id, kv); err != nil {
				t.Fatalf("step %d: Put(%d, %dx%d): %v", i, o.id, o.rows, o.cols, err)
			}
			live[o.id] = int64(kv.SizeBytes())
		}
		var want int64
		for _, b := range live {
			want += b
		}
		if got := s.origBytes; got != want {
			t.Fatalf("step %d (%+v): OrigBytes = %d, want %d", i, o, got, want)
		}
		if got := s.Len(); got != len(live) {
			t.Fatalf("step %d (%+v): Len = %d, want %d", i, o, got, len(live))
		}
	}
	// Full drain: both aggregates must return to exactly zero — any
	// insert/remove asymmetry leaves a residue here.
	if s.origBytes != 0 || s.compBytes != 0 {
		t.Fatalf("drained store holds orig=%d comp=%d bytes", s.origBytes, s.compBytes)
	}
}

// TestReshapeNarrowAlignedBlock pins the reshape gate to geometry, not
// row alignment: a 128×8 block is 64-row-aligned, yet laid out as-is it
// spans two tile rows at an eighth of a tile's width each — seven
// eighths padding. The pre-fix guard (kv.Rows%64 == 0) skipped the
// reshape for it and paid double the compressed footprint of the
// equivalent 64×16 layout, breaking the documented "at most one partial
// column of tiles" guarantee.
func TestReshapeNarrowAlignedBlock(t *testing.T) {
	narrow := weights.Gaussian(128, 8, 1.0, 11)
	square := &bf16.Matrix{Rows: 64, Cols: 16, Data: narrow.Data}

	sizeOf := func(kv *bf16.Matrix) int {
		t.Helper()
		cm, err := core.Compress(reshapeForTiles(kv))
		if err != nil {
			t.Fatal(err)
		}
		return cm.SizeBytes()
	}
	if got, want := sizeOf(narrow), sizeOf(square); got != want {
		t.Fatalf("128x8 compresses to %d bytes, equivalent 64x16 to %d — reshape skipped", got, want)
	}

	// And the reshape stays invisible to callers: the round trip
	// restores the original narrow shape bit for bit.
	s := NewCompressedStore()
	if err := s.Put(1, narrow); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !narrow.Equal(got) {
		t.Fatal("128x8 block not bit-exact after reshaped compression")
	}
}

// TestReshapeExactTileRowSkipped: a tensor already exactly 64 rows wide
// cannot change tile layout by reshaping, so the gate must pass it
// through untouched (no copy).
func TestReshapeExactTileRowSkipped(t *testing.T) {
	kv := weights.Gaussian(64, 48, 1.0, 12)
	if got := reshapeForTiles(kv); got != kv {
		t.Fatal("64-row tensor was reshaped (copied) for no layout change")
	}
	empty := &bf16.Matrix{Rows: 0, Cols: 7}
	if got := reshapeForTiles(empty); got != empty {
		t.Fatal("zero-element tensor was reshaped")
	}
}

// TestReshapeSharesWholeColumns: when the elements fill whole 64-row
// columns — every 16×256 KV block — the reshaped view shares the
// block's data instead of copying it; only a ragged tail pays for a
// zero-padded copy.
func TestReshapeSharesWholeColumns(t *testing.T) {
	kv := blockContent("reshape", DefaultBlockTokens)
	got := reshapeForTiles(kv)
	if got.Rows != 64 || got.Cols != 64 || &got.Data[0] != &kv.Data[0] {
		t.Fatalf("16x256 block reshaped to %dx%d (shared data: %v), want a 64x64 view of the same elements",
			got.Rows, got.Cols, &got.Data[0] == &kv.Data[0])
	}
	ragged := weights.Gaussian(3, 50, 1.0, 14) // 150 elements: 3 columns, 42 padding
	got = reshapeForTiles(ragged)
	if got.Rows != 64 || got.Cols != 3 || &got.Data[0] == &ragged.Data[0] {
		t.Fatalf("3x50 block reshaped to %dx%d sharing its data, want a padded 64x3 copy", got.Rows, got.Cols)
	}
	for i, v := range got.Data {
		if i < ragged.NumElements() && v != ragged.Data[i] || i >= ragged.NumElements() && v != 0 {
			t.Fatalf("padded copy differs at %d", i)
		}
	}
}

// TestRatioEmptyStoreIsNeutral documents the empty-store convention:
// Ratio() is 1.0 ("no compression applied yet"), the value stats and
// compare consumers can divide by or chart without special-casing
// startup. The pre-fix 0 read as infinitely bad compression.
func TestRatioEmptyStoreIsNeutral(t *testing.T) {
	s := NewCompressedStore()
	if got := s.Ratio(); got != 1.0 {
		t.Fatalf("empty-store Ratio = %v, want 1.0", got)
	}
	kv := weights.Gaussian(16, 256, 0.02, 13)
	if err := s.Put(1, kv); err != nil {
		t.Fatal(err)
	}
	if got := s.Ratio(); got <= 1.0 || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Ratio on compressible content = %v, want finite > 1.0", got)
	}
	s.Delete(1)
	if got := s.Ratio(); got != 1.0 {
		t.Fatalf("drained-store Ratio = %v, want 1.0 again", got)
	}
}

// FuzzCompressedStoreRoundtrip drives Put/Get/replace/Delete across
// random geometries — zero-element, partial-tail, 64-row-aligned
// narrow — with arbitrary BF16 bit patterns (NaNs, infinities,
// subnormals included: the codec is lossless or it is wrong), checking
// bit-exact round trips and that the byte accounting drains to zero.
func FuzzCompressedStoreRoundtrip(f *testing.F) {
	f.Add(uint8(16), uint8(255), uint8(64), uint8(16), int64(1))
	f.Add(uint8(0), uint8(5), uint8(3), uint8(3), int64(2))    // zero-element first
	f.Add(uint8(128), uint8(8), uint8(7), uint8(33), int64(3)) // aligned-narrow, partial tail
	f.Add(uint8(64), uint8(64), uint8(1), uint8(1), int64(4))  // exact tile, single element
	f.Fuzz(func(t *testing.T, r1, c1, r2, c2 uint8, seed int64) {
		mk := func(rows, cols int) *bf16.Matrix {
			m := bf16.NewMatrix(rows, cols)
			x := uint64(seed)*2654435761 + uint64(rows)<<16 + uint64(cols) + 0x9e3779b97f4a7c15
			for i := range m.Data {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				m.Data[i] = bf16.FromBits(uint16(x))
			}
			return m
		}
		s := NewCompressedStore()
		a := mk(int(r1), int(c1))
		if err := s.Put(1, a); err != nil {
			t.Fatalf("Put(%dx%d): %v", r1, c1, err)
		}
		got, err := s.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(got) {
			t.Fatalf("%dx%d not bit-exact (first diff at %d)", r1, c1, a.FirstDiff(got))
		}
		// Replace under a different geometry, then round-trip again.
		b := mk(int(r2), int(c2))
		if err := s.Put(1, b); err != nil {
			t.Fatalf("replace Put(%dx%d): %v", r2, c2, err)
		}
		if got, err = s.Get(1); err != nil {
			t.Fatal(err)
		}
		if !b.Equal(got) {
			t.Fatalf("replacement %dx%d not bit-exact (first diff at %d)", r2, c2, b.FirstDiff(got))
		}
		if want := int64(b.SizeBytes()); s.origBytes != want {
			t.Fatalf("OrigBytes after replace = %d, want %d", s.origBytes, want)
		}
		s.Delete(1)
		if s.Len() != 0 || s.origBytes != 0 || s.compBytes != 0 || s.Ratio() != 1.0 {
			t.Fatalf("drained store: len=%d orig=%d comp=%d ratio=%v",
				s.Len(), s.origBytes, s.compBytes, s.Ratio())
		}
	})
}

// blockContent returns key's block tensor in a fresh matrix: what a
// Manager's synthesize writes into its scratch block.
func blockContent(key string, blockTokens int) *bf16.Matrix {
	kv := bf16.NewMatrix(blockTokens, compressedKVCols)
	fillBlock(key, kv.Data)
	return kv
}

// TestVerifyComparesEveryElement: a payload that decodes to its key's
// content in all but one element — the first, a middle one or the last
// — fails verify, which names that element, while the exact payload
// passes, before and after the failures leave the scratch dirty. A
// payload of another shape fails before it is decoded.
func TestVerifyComparesEveryElement(t *testing.T) {
	m, err := NewManager(Config{BlockTokens: DefaultBlockTokens, TotalBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	const key = "verify/one-element"
	want := blockContent(key, DefaultBlockTokens)
	exact, err := encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.verify(key, m.scratchBlock()); err != nil {
		t.Fatalf("exact payload: %v", err)
	}
	for _, i := range []int{0, len(want.Data) / 2, len(want.Data) - 1} {
		kv := want.Clone()
		kv.Data[i] ^= 1 // the mantissa's low bit
		sb, err := encode(kv)
		if err != nil {
			t.Fatal(err)
		}
		err = sb.verify(key, m.scratchBlock())
		if err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf("at element %d", i)) {
			t.Fatalf("payload differing at element %d: verify = %v", i, err)
		}
	}
	if err := exact.verify(key, m.scratchBlock()); err != nil {
		t.Fatalf("exact payload after failed checks: %v", err)
	}
	wide, err := encode(blockContent(key, 2*DefaultBlockTokens))
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.verify(key, m.scratchBlock()); err == nil {
		t.Fatal("a 32×256 payload verified as a 16×256 block")
	}
}

var kvBlockSink *bf16.Matrix

// BenchmarkCompressedStoreKVBlock measures the codec at the real KV
// block shape: Put then Get of one synthesized 16×256 block, which
// reshapes to exactly one 64×64 BlockTile.
func BenchmarkCompressedStoreKVBlock(b *testing.B) {
	kv := blockContent("bench/kv-block", DefaultBlockTokens)
	s := NewCompressedStore()
	b.SetBytes(int64(kv.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(1, kv); err != nil {
			b.Fatal(err)
		}
		out, err := s.Get(1)
		if err != nil {
			b.Fatal(err)
		}
		kvBlockSink = out
	}
}

// BenchmarkVerifyKVBlock is the content check ImportKV runs on every
// block it expands and CheckInvariants on every payload a node holds:
// decode one 16×256 payload into the Manager's scratch block and
// compare it with its key's generator stream. It allocates nothing.
func BenchmarkVerifyKVBlock(b *testing.B) {
	m, err := NewManager(Config{BlockTokens: DefaultBlockTokens, TotalBlocks: 1})
	if err != nil {
		b.Fatal(err)
	}
	const key = "bench/kv-block"
	sb, err := encode(blockContent(key, DefaultBlockTokens))
	if err != nil {
		b.Fatal(err)
	}
	kv := m.scratchBlock()
	b.SetBytes(sb.origSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sb.verify(key, kv); err != nil {
			b.Fatal(err)
		}
	}
}
