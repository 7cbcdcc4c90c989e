// Package tile implements the three-level hierarchical tiling scheme of
// TCA-TBE (§4.2 of the paper), which partitions a weight matrix
// according to the architectural granularity of NVIDIA Tensor Cores:
//
//   - FragTile (FT): 8×8, the smallest operand fragment of the
//     mma.sync.m16n8k16 instruction. Each FragTile is the unit of
//     encoding — three 64-bit bitmaps plus value buffers.
//   - TensorCoreTile (TT): 16×16, a 2×2 grid of FragTiles stored in
//     COLUMN-MAJOR order, mirroring the Ra0–Ra3 operand register
//     layout, so no runtime coordinate transformation is needed.
//   - BlockTile (BT): 64×64, a 4×4 grid of TensorCoreTiles processed
//     cooperatively by one thread block; also the "GroupTile"
//     granularity at which value-buffer offsets are recorded.
//
// The package provides pure index arithmetic: mapping matrix
// coordinates to (blockTile, tensorCoreTile, fragTile, position) and
// back, plus the warp lane ↔ fragment-position mapping used by the
// decompressor (lane i holds positions 2i and 2i+1 of each FragTile).
package tile

import "fmt"

// Geometry constants of the hierarchy.
const (
	// FragDim is the side of a FragTile (8×8 = 64 elements, one bit
	// each in a 64-bit bitmap).
	FragDim = 8
	// FragElems is the number of elements in one FragTile.
	FragElems = FragDim * FragDim

	// TCDim is the side of a TensorCoreTile (16×16), matching the
	// m=16, k=16 operand of mma.m16n8k16.
	TCDim = 16
	// FragsPerTCSide is the number of FragTiles along one side of a
	// TensorCoreTile (2, giving a 2×2 grid).
	FragsPerTCSide = TCDim / FragDim
	// FragsPerTC is the number of FragTiles in a TensorCoreTile.
	FragsPerTC = FragsPerTCSide * FragsPerTCSide

	// BlockDim is the side of a BlockTile (64×64).
	BlockDim = 64
	// TCsPerBlockSide is the number of TensorCoreTiles along one side
	// of a BlockTile (4, giving a 4×4 grid).
	TCsPerBlockSide = BlockDim / TCDim
	// TCsPerBlock is the number of TensorCoreTiles in a BlockTile.
	TCsPerBlock = TCsPerBlockSide * TCsPerBlockSide
	// FragsPerBlock is the number of FragTiles in a BlockTile.
	FragsPerBlock = TCsPerBlock * FragsPerTC

	// WarpLanes is the number of threads in a warp; each lane decodes
	// two elements of an 8×8 FragTile (64 = 32 × 2).
	WarpLanes = 32
	// ElemsPerLane is the number of FragTile elements owned by one
	// warp lane (the .bf16x2 register pair a0, a1).
	ElemsPerLane = FragElems / WarpLanes
)

// Grid describes the tiling of an M×K matrix: the matrix is padded (by
// the encoder) up to a whole number of 64×64 BlockTiles.
type Grid struct {
	Rows, Cols int // original matrix dimensions

	BlockRows, BlockCols   int // BlockTiles per dimension
	PaddedRows, PaddedCols int
}

// NewGrid computes the tiling grid for an M×K matrix.
func NewGrid(rows, cols int) Grid {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tile: non-positive matrix dimensions %d×%d", rows, cols))
	}
	br := (rows + BlockDim - 1) / BlockDim
	bc := (cols + BlockDim - 1) / BlockDim
	return Grid{
		Rows: rows, Cols: cols,
		BlockRows: br, BlockCols: bc,
		PaddedRows: br * BlockDim, PaddedCols: bc * BlockDim,
	}
}

// NumBlocks returns the total number of BlockTiles (GroupTiles).
func (g Grid) NumBlocks() int { return g.BlockRows * g.BlockCols }

// NumFrags returns the total number of FragTiles across the padded
// matrix; each contributes exactly three 64-bit bitmaps to the
// encoding.
func (g Grid) NumFrags() int { return g.NumBlocks() * FragsPerBlock }

// Coord identifies a single element's position within the hierarchy.
type Coord struct {
	Block int // BlockTile index, row-major over the grid
	Frag  int // FragTile index within the BlockTile, in storage order
	Pos   int // element position within the FragTile, row-major 0..63
}

// fragIndexInBlock returns the storage index of the FragTile containing
// local coordinates (r, c) within a BlockTile. TensorCoreTiles are laid
// out row-major within the block; FragTiles within a TensorCoreTile are
// stored COLUMN-MAJOR (§4.2: "FragTiles within a TensorCoreTile are
// stored in column-major order, mirroring the operand register layout").
func fragIndexInBlock(r, c int) int {
	tcRow, tcCol := r/TCDim, c/TCDim
	tcIndex := tcRow*TCsPerBlockSide + tcCol
	fr, fc := (r%TCDim)/FragDim, (c%TCDim)/FragDim
	fragInTC := fc*FragsPerTCSide + fr // column-major 2×2
	return tcIndex*FragsPerTC + fragInTC
}

// fragOrigin is the inverse of fragIndexInBlock: the (row, col) of the
// FragTile's top-left element within its BlockTile.
func fragOrigin(frag int) (r, c int) {
	tcIndex, fragInTC := frag/FragsPerTC, frag%FragsPerTC
	tcRow, tcCol := tcIndex/TCsPerBlockSide, tcIndex%TCsPerBlockSide
	fc, fr := fragInTC/FragsPerTCSide, fragInTC%FragsPerTCSide // column-major
	return tcRow*TCDim + fr*FragDim, tcCol*TCDim + fc*FragDim
}

// fragOrigins is fragOrigin precomputed for every storage index.
var fragOrigins = func() (t [FragsPerBlock][2]int) {
	for f := range t {
		t[f][0], t[f][1] = fragOrigin(f)
	}
	return t
}()

// FragOrigin returns the (row, col) of FragTile frag's top-left
// element within its BlockTile, read from a table built once from the
// layout above. A FragTile covers rows r..r+7 and columns c..c+7 of its
// BlockTile, so a codec walks it as eight contiguous row slices with
// no per-element coordinate transformation (§4.2).
func FragOrigin(frag int) (r, c int) {
	o := &fragOrigins[frag]
	return o[0], o[1]
}

// BlockOrigin returns the padded-matrix (row, col) of BlockTile b's
// top-left element; BlockTiles are numbered row-major over the grid.
func (g Grid) BlockOrigin(b int) (r, c int) {
	return b / g.BlockCols * BlockDim, b % g.BlockCols * BlockDim
}

// ToCoord maps padded-matrix coordinates (r, c) to a hierarchy Coord.
// r and c may address padding (up to PaddedRows/PaddedCols).
func (g Grid) ToCoord(r, c int) Coord {
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

// FromCoord maps a hierarchy Coord back to padded-matrix coordinates.
func (g Grid) FromCoord(co Coord) (r, c int) {
	br, bc := g.BlockOrigin(co.Block)
	fr, fc := fragOrigin(co.Frag)
	return br + fr + co.Pos/FragDim, bc + fc + co.Pos%FragDim
}

// GlobalFrag returns the global FragTile index of a Coord: FragTiles
// are numbered block-by-block, in storage order within each block.
// This is the index into the bitmap arrays of the encoding.
func (g Grid) GlobalFrag(co Coord) int { return co.Block*FragsPerBlock + co.Frag }

// InBounds reports whether padded coordinates (r, c) address a real
// (non-padding) element of the original matrix.
func (g Grid) InBounds(r, c int) bool { return r < g.Rows && c < g.Cols }

// LanePositions returns the two FragTile positions owned by warp lane
// l, matching the Tensor Core fragment layout where lane i's .bf16x2
// register holds positions 2i and 2i+1 (§4.3.2, Figure 7).
func LanePositions(lane int) (p0, p1 int) {
	if lane < 0 || lane >= WarpLanes {
		panic(fmt.Sprintf("tile: lane %d outside warp of %d", lane, WarpLanes))
	}
	return 2 * lane, 2*lane + 1
}

// LaneForPosition returns the warp lane that owns FragTile position p
// and which of its two register slots (0 = a0, 1 = a1) holds it.
func LaneForPosition(p int) (lane, slot int) {
	if p < 0 || p >= FragElems {
		panic(fmt.Sprintf("tile: position %d outside FragTile of %d", p, FragElems))
	}
	return p / ElemsPerLane, p % ElemsPerLane
}
