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
// and the decode path reuses ZipGEMM's thread-local decompressor. The
// Manager's cold cache and KV handoffs hold the same payloads without a
// store: on trie nodes (coldstore.go) and in export lists (handoff.go).
type CompressedStore struct {
	blocks map[int]*storedBlock

	origBytes int64
	compBytes int64
}

// storedBlock is the one KV payload type: the compressed tensor plus
// the original geometry. KV blocks are short and wide (blockTokens
// rows), so they are reshaped into 64-row, tile-aligned form before
// encoding to avoid paying BlockTile padding, and restored on decode.
// origSize records the logical byte size charged to byte accounting
// when the payload was made; removing it subtracts exactly this value,
// so an aggregate can never drift from the sum over live payloads no
// matter how either side of the accounting evolves.
type storedBlock struct {
	cm         *core.Compressed // nil for zero-element blocks (nothing to encode)
	rows, cols int
	origSize   int64
}

// encode compresses a KV tensor into a payload.
func encode(kv *bf16.Matrix) (*storedBlock, error) {
	var cm *core.Compressed
	if kv.NumElements() > 0 { // empty blocks store shape only
		var err error
		if cm, err = core.Compress(reshapeForTiles(kv)); err != nil {
			return nil, err
		}
	}
	return &storedBlock{cm: cm, rows: kv.Rows, cols: kv.Cols, origSize: int64(kv.SizeBytes())}, nil
}

// compSize returns a payload's compressed footprint; zero-element
// blocks carry no codec payload.
func (sb *storedBlock) compSize() int64 {
	if sb.cm == nil {
		return 0
	}
	return int64(sb.cm.SizeBytes())
}

// blockSize is a KV block's byte accounting: the logical size of its
// tensor and the size TCA-TBE encodes it to.
type blockSize struct{ orig, comp int64 }

// size returns a payload's byte accounting.
func (sb *storedBlock) size() blockSize { return blockSize{orig: sb.origSize, comp: sb.compSize()} }

// decode decompresses a payload bit-exactly in its original shape.
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

// verify decodes a payload into kv — a Manager's scratch block, in the
// shape the key's content has — and compares it element by element with
// the key's generator stream: the one round-trip proof, run by ImportKV
// on every wire block it expands and by CheckInvariants on every
// payload a trie node holds. It allocates nothing unless it fails.
func (sb *storedBlock) verify(key string, kv *bf16.Matrix) error {
	if sb.rows != kv.Rows || sb.cols != kv.Cols {
		return fmt.Errorf("%d×%d payload for a %d×%d block", sb.rows, sb.cols, kv.Rows, kv.Cols)
	}
	if err := core.DecompressInto(sb.cm, kv.Data); err != nil {
		return fmt.Errorf("unreadable: %w", err)
	}
	x, want := kvSeed(key), bf16.BF16(0)
	for i, got := range kv.Data {
		x, want = kvStep(x)
		if got != want {
			return fmt.Errorf("decompressed content differs from its key's at element %d", i)
		}
	}
	return nil
}

// NewCompressedStore returns an empty store.
func NewCompressedStore() *CompressedStore {
	return &CompressedStore{blocks: make(map[int]*storedBlock)}
}

// Put compresses and stores the KV tensor of a block, replacing any
// previous content.
func (s *CompressedStore) Put(blockID int, kv *bf16.Matrix) error {
	sb, err := encode(kv)
	if err != nil {
		return fmt.Errorf("kvcache: compressing block %d: %w", blockID, err)
	}
	s.Delete(blockID)
	s.blocks[blockID] = sb
	s.origBytes += sb.origSize
	s.compBytes += sb.compSize()
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

// Delete removes a block and its byte accounting (absent blocks are a
// no-op).
func (s *CompressedStore) Delete(blockID int) {
	if sb, ok := s.blocks[blockID]; ok {
		s.origBytes -= sb.origSize
		s.compBytes -= sb.compSize()
		delete(s.blocks, blockID)
	}
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
	rows, cols := tileShape(n)
	if n == rows*cols {
		return &bf16.Matrix{Rows: rows, Cols: cols, Data: kv.Data[:n]}
	}
	flat := make([]bf16.BF16, rows*cols)
	copy(flat, kv.Data)
	return &bf16.Matrix{Rows: rows, Cols: cols, Data: flat}
}

// tileShape is the geometry reshapeForTiles encodes a non-empty
// n-element tensor in: 64 rows of ⌈n/64⌉ columns, the shape a 64-row
// tensor already has.
func tileShape(n int) (rows, cols int) { return 64, (n + 63) / 64 }

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
