package kvcache

import (
	"fmt"

	"zipserv/internal/bf16"
	"zipserv/internal/core"
)

// CompressedStore holds KV blocks in TCA-TBE form — the paper's first
// future-work direction (§7): "the TCA-TBE format can be adapted for
// lossless KV Cache compression". Each block's K/V tensor is laid out
// as a (blockTokens × headBytes) BF16 matrix and compressed with the
// same triple-bitmap codec as the weights, so reads remain bit-exact
// and the decode path reuses ZipGEMM's thread-local decompressor.
type CompressedStore struct {
	blocks map[int]*storedBlock

	origBytes int64
	compBytes int64
}

// storedBlock keeps the compressed tensor plus the original geometry:
// KV blocks are short and wide (blockTokens rows), so they are
// reshaped into 64-row, tile-aligned form before encoding to avoid
// paying BlockTile padding, and restored on Get. origSize records the
// logical byte size charged to the store's accounting at Put time;
// replace and Delete subtract exactly this value, so the aggregate
// origBytes can never drift from the sum over live blocks no matter
// how either side of the accounting evolves.
type storedBlock struct {
	cm         *core.Compressed // nil for zero-element blocks (nothing to encode)
	rows, cols int
	origSize   int64
}

// compSize returns a stored block's compressed footprint; zero-element
// blocks carry no codec payload.
func (sb *storedBlock) compSize() int64 {
	if sb.cm == nil {
		return 0
	}
	return int64(sb.cm.SizeBytes())
}

// NewCompressedStore returns an empty store.
func NewCompressedStore() *CompressedStore {
	return &CompressedStore{blocks: make(map[int]*storedBlock)}
}

// decode decompresses a stored block bit-exactly in its original
// shape.
func (sb *storedBlock) decode() (*bf16.Matrix, error) {
	if sb.cm == nil {
		return &bf16.Matrix{Rows: sb.rows, Cols: sb.cols, Data: []bf16.BF16{}}, nil
	}
	flat, err := core.Decompress(sb.cm)
	if err != nil {
		return nil, err
	}
	return &bf16.Matrix{Rows: sb.rows, Cols: sb.cols, Data: flat.Data[:sb.rows*sb.cols]}, nil
}

// Put compresses and stores the KV tensor of a block, replacing any
// previous content.
func (s *CompressedStore) Put(blockID int, kv *bf16.Matrix) error {
	var cm *core.Compressed
	if kv.NumElements() > 0 { // empty blocks store shape only
		var err error
		if cm, err = core.Compress(reshapeForTiles(kv)); err != nil {
			return fmt.Errorf("kvcache: compressing block %d: %w", blockID, err)
		}
	}
	s.attach(blockID, &storedBlock{cm: cm, rows: kv.Rows, cols: kv.Cols, origSize: int64(kv.SizeBytes())})
	return nil
}

// Get decompresses a block bit-exactly in its original shape.
func (s *CompressedStore) Get(blockID int) (*bf16.Matrix, error) {
	sb, ok := s.blocks[blockID]
	if !ok {
		return nil, fmt.Errorf("kvcache: block %d not in store", blockID)
	}
	return sb.decode()
}

// Delete removes a block.
func (s *CompressedStore) Delete(blockID int) { s.detach(blockID) }

// detach removes a block and its byte accounting from the store and
// returns its payload (nil if absent), which attach can later store
// again verbatim.
func (s *CompressedStore) detach(blockID int) *storedBlock {
	sb, ok := s.blocks[blockID]
	if !ok {
		return nil
	}
	s.origBytes -= sb.origSize
	s.compBytes -= sb.compSize()
	delete(s.blocks, blockID)
	return sb
}

// attach stores a payload under blockID, replacing any previous
// content, and charges it to the store's accounting.
func (s *CompressedStore) attach(blockID int, sb *storedBlock) {
	s.detach(blockID)
	s.blocks[blockID] = sb
	s.origBytes += sb.origSize
	s.compBytes += sb.compSize()
}

// Has reports whether a block is stored, without decompressing it.
func (s *CompressedStore) Has(blockID int) bool {
	_, ok := s.blocks[blockID]
	return ok
}

// reshapeForTiles views the tensor's elements as a 64-row matrix so
// the 64×64 BlockTile grid wastes at most one partial column of tiles
// instead of 3/4 of every block. Element order is preserved, so the
// reshape is invisible to callers. The gate is pure geometry: the
// reshape is skipped only when it could not change the tile layout
// (the tensor is empty, or already exactly 64 rows) — row alignment
// alone is not enough, since a 128×8 block is 64-row-aligned yet
// still pays two half-empty tile rows unless reshaped to 64×16. When
// the elements fill whole 64-row columns (every 16×256 KV block does)
// the view shares kv.Data; only a ragged tail needs a zero-padded copy.
func reshapeForTiles(kv *bf16.Matrix) *bf16.Matrix {
	n := kv.NumElements()
	if n == 0 || kv.Rows == 64 {
		return kv
	}
	cols := (n + 63) / 64
	if n == 64*cols {
		return &bf16.Matrix{Rows: 64, Cols: cols, Data: kv.Data[:n]}
	}
	flat := make([]bf16.BF16, 64*cols)
	copy(flat, kv.Data)
	return &bf16.Matrix{Rows: 64, Cols: cols, Data: flat}
}

// Len returns the number of stored blocks.
func (s *CompressedStore) Len() int { return len(s.blocks) }

// Ratio returns the aggregate compression ratio of the stored blocks.
// An empty store reports 1.0 — "no compression applied yet", the
// neutral element — so stats and compare consumers can divide by it or
// chart it without special-casing startup (0 would read as infinitely
// bad compression).
func (s *CompressedStore) Ratio() float64 {
	if s.compBytes == 0 {
		return 1.0
	}
	return float64(s.origBytes) / float64(s.compBytes)
}

// OrigBytes returns the logical (uncompressed) footprint of the stored
// blocks — the bytes a claim would decompress back into KV memory.
func (s *CompressedStore) OrigBytes() int64 { return s.origBytes }

// CompressedBytes returns the stored footprint.
func (s *CompressedStore) CompressedBytes() int64 { return s.compBytes }
