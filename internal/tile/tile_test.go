package tile

import (
	"fmt"
	"testing"
	"testing/quick"
)

// toCoord maps padded-matrix coordinates (r, c) to a hierarchy Coord,
// the element-to-fragment oracle that FromCoord and the FragOrigin
// table are checked against. r and c may address padding (up to
// PaddedRows/PaddedCols).
func toCoord(g Grid, r, c int) Coord {
	if r < 0 || r >= g.PaddedRows || c < 0 || c >= g.PaddedCols {
		panic(fmt.Sprintf("tile: coordinate (%d,%d) outside padded %d×%d", r, c, g.PaddedRows, g.PaddedCols))
	}
	br, bc := r/BlockDim, c/BlockDim
	lr, lc := r%BlockDim, c%BlockDim
	return Coord{
		Block: br*g.BlockCols + bc,
		Frag:  fragIndexInBlock(lr, lc),
		Pos:   (lr%FragDim)*FragDim + lc%FragDim,
	}
}

// fragIndexInBlock returns the storage index of the FragTile containing
// local coordinates (r, c) within a BlockTile: the inverse of
// fragOrigin, written from the layout rule independently.
func fragIndexInBlock(r, c int) int {
	tcRow, tcCol := r/TCDim, c/TCDim
	tcIndex := tcRow*TCsPerBlockSide + tcCol
	fr, fc := (r%TCDim)/FragDim, (c%TCDim)/FragDim
	fragInTC := fc*FragsPerTCSide + fr // column-major 2×2
	return tcIndex*FragsPerTC + fragInTC
}

func TestGridDimensions(t *testing.T) {
	cases := []struct {
		rows, cols             int
		blockRows, blockCols   int
		paddedRows, paddedCols int
	}{
		{64, 64, 1, 1, 64, 64},
		{65, 64, 2, 1, 128, 64},
		{1, 1, 1, 1, 64, 64},
		{128, 192, 2, 3, 128, 192},
		{100, 100, 2, 2, 128, 128},
		{4096, 4096, 64, 64, 4096, 4096},
	}
	for _, c := range cases {
		g := NewGrid(c.rows, c.cols)
		if g.BlockRows != c.blockRows || g.BlockCols != c.blockCols ||
			g.PaddedRows != c.paddedRows || g.PaddedCols != c.paddedCols {
			t.Errorf("NewGrid(%d,%d) = %+v, want blocks %dx%d padded %dx%d",
				c.rows, c.cols, g, c.blockRows, c.blockCols, c.paddedRows, c.paddedCols)
		}
	}
}

func TestGridCounts(t *testing.T) {
	g := NewGrid(128, 64)
	if g.NumBlocks() != 2 {
		t.Errorf("NumBlocks = %d, want 2", g.NumBlocks())
	}
	// 64 FragTiles per 64×64 BlockTile (8×8 grid of 8×8 tiles).
	if FragsPerBlock != 64 {
		t.Fatalf("FragsPerBlock = %d, want 64", FragsPerBlock)
	}
	if g.NumFrags() != 128 {
		t.Errorf("NumFrags = %d, want 128", g.NumFrags())
	}
}

func TestNewGridPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero dimension")
		}
	}()
	NewGrid(0, 64)
}

func TestCoordRoundTripExhaustiveSmall(t *testing.T) {
	// Every padded coordinate of a 2×3-block grid must round-trip
	// through the hierarchy mapping, and the mapping must be a
	// bijection (each Coord seen exactly once).
	g := NewGrid(100, 150) // pads to 128×192
	seen := make(map[Coord]bool)
	for r := 0; r < g.PaddedRows; r++ {
		for c := 0; c < g.PaddedCols; c++ {
			co := toCoord(g, r, c)
			if co.Block < 0 || co.Block >= g.NumBlocks() {
				t.Fatalf("(%d,%d): block %d out of range", r, c, co.Block)
			}
			if co.Frag < 0 || co.Frag >= FragsPerBlock {
				t.Fatalf("(%d,%d): frag %d out of range", r, c, co.Frag)
			}
			if co.Pos < 0 || co.Pos >= FragElems {
				t.Fatalf("(%d,%d): pos %d out of range", r, c, co.Pos)
			}
			if seen[co] {
				t.Fatalf("(%d,%d): coord %+v already used — not a bijection", r, c, co)
			}
			seen[co] = true
			br, bc := g.FromCoord(co)
			if br != r || bc != c {
				t.Fatalf("(%d,%d) → %+v → (%d,%d): round trip failed", r, c, co, br, bc)
			}
		}
	}
	if len(seen) != g.PaddedRows*g.PaddedCols {
		t.Fatalf("saw %d distinct coords, want %d", len(seen), g.PaddedRows*g.PaddedCols)
	}
}

func TestFragColumnMajorWithinTensorCoreTile(t *testing.T) {
	// Within a 16×16 TensorCoreTile the four 8×8 FragTiles are stored
	// column-major: (row 0, col 0) → frag 0; (row 8, col 0) → frag 1;
	// (row 0, col 8) → frag 2; (row 8, col 8) → frag 3. This mirrors
	// the Ra0–Ra3 register operand order of mma.m16n8k16.
	g := NewGrid(64, 64)
	wants := []struct{ r, c, frag int }{
		{0, 0, 0},
		{8, 0, 1},
		{0, 8, 2},
		{8, 8, 3},
	}
	for _, w := range wants {
		co := toCoord(g, w.r, w.c)
		if co.Frag != w.frag {
			t.Errorf("toCoord(%d,%d).Frag = %d, want %d (column-major frag order)", w.r, w.c, co.Frag, w.frag)
		}
	}
	// Second TensorCoreTile along the row starts at frag 4.
	if co := toCoord(g, 0, 16); co.Frag != 4 {
		t.Errorf("toCoord(0,16).Frag = %d, want 4", co.Frag)
	}
	// Second TensorCoreTile row starts at frag 16 (4 TCs × 4 frags).
	if co := toCoord(g, 16, 0); co.Frag != 16 {
		t.Errorf("toCoord(16,0).Frag = %d, want 16", co.Frag)
	}
}

// TestOriginTablesMatchCoords pins the precomputed origins the codec
// walks to the coordinate mapping: every element of FragTile f in block
// b sits at BlockOrigin(b) + FragOrigin(f) + (Pos/8, Pos%8).
func TestOriginTablesMatchCoords(t *testing.T) {
	g := NewGrid(130, 200) // 3×4 blocks, partial on both edges
	for b := 0; b < g.NumBlocks(); b++ {
		br, bc := g.BlockOrigin(b)
		for f := 0; f < FragsPerBlock; f++ {
			fr, fc := FragOrigin(f)
			for p := 0; p < FragElems; p++ {
				r, c := g.FromCoord(Coord{Block: b, Frag: f, Pos: p})
				if r != br+fr+p/FragDim || c != bc+fc+p%FragDim {
					t.Fatalf("block %d frag %d pos %d: tables give (%d,%d), FromCoord (%d,%d)",
						b, f, p, br+fr+p/FragDim, bc+fc+p%FragDim, r, c)
				}
			}
		}
	}
}

func TestPositionRowMajorWithinFrag(t *testing.T) {
	g := NewGrid(64, 64)
	if co := toCoord(g, 0, 0); co.Pos != 0 {
		t.Errorf("pos(0,0) = %d, want 0", co.Pos)
	}
	if co := toCoord(g, 0, 7); co.Pos != 7 {
		t.Errorf("pos(0,7) = %d, want 7", co.Pos)
	}
	if co := toCoord(g, 1, 0); co.Pos != 8 {
		t.Errorf("pos(1,0) = %d, want 8", co.Pos)
	}
	if co := toCoord(g, 7, 7); co.Pos != 63 {
		t.Errorf("pos(7,7) = %d, want 63", co.Pos)
	}
}

func TestInBounds(t *testing.T) {
	g := NewGrid(100, 150)
	if !g.InBounds(99, 149) {
		t.Error("last real element reported out of bounds")
	}
	if g.InBounds(100, 0) || g.InBounds(0, 150) {
		t.Error("padding reported in bounds")
	}
}

func TestQuickCoordRoundTrip(t *testing.T) {
	// Property: for arbitrary grids and in-range coordinates, the
	// hierarchy mapping round-trips.
	f := func(rows, cols, r, c uint16) bool {
		rw := int(rows%500) + 1
		cl := int(cols%500) + 1
		g := NewGrid(rw, cl)
		rr := int(r) % g.PaddedRows
		cc := int(c) % g.PaddedCols
		co := toCoord(g, rr, cc)
		br, bc := g.FromCoord(co)
		return br == rr && bc == cc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
