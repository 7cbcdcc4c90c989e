package kvcache

import (
	"fmt"

	"zipserv/internal/bf16"
)

// Compressed cold blocks: with EnableCompressedCache, a prefix-cache
// block whose refcount drops to zero is no longer parked as a physical
// block — its KV content is compressed with TCA-TBE into the payload of
// its own trie node and the physical block returns to the free list
// immediately. The trie keeps advertising the content (the node
// survives with block = -1 in the frozen pool), so a later identical
// prompt still matches; claiming such a "frozen" block pops a fresh
// physical block for it. The trade is the paper's §7 future-work
// direction wired into the live path: cold prefix content costs only
// compressed bytes instead of whole KV blocks, buying effective cache
// capacity at a per-claim decompress price the engine cost model
// charges explicitly (gpu.KVDecompressTime).
//
// The engine is a discrete simulation — live blocks carry no real KV
// tensors — so the block content fed to the codec is synthesized
// deterministically from the block's token content key. The synthesis
// is content-addressed and reproducible, which makes the compression
// real (the codec runs on actual BF16 data, CompressionRatio is a
// measured number) and the round-trip verifiable: CheckInvariants
// re-synthesizes the content of every payload a trie node holds and
// compares the decompressed tensor bit for bit. A claim itself only
// validates the payload it thaws (load compressed, compute
// decompressed): nothing in the simulation reads the decoded tensor,
// and the cost model charges the decompress time regardless.

// compressedKVCols is the column width of the synthesized per-block KV
// tensor: one block compresses as a (BlockTokens × 256) BF16 matrix.
// At the default 16-token block that is 4096 elements — exactly one
// 64×64 BlockTile after reshapeForTiles — so the codec's per-tile
// bitmap overhead is amortised over a full tile instead of being paid
// for three quarters of padding, and the measured ratio reflects the
// payload, as it would for real KV blocks (which are megabytes, many
// whole tiles).
const compressedKVCols = 256

// EnableCompressedCache turns on compressed storage for cold
// (refcount-zero) prefix-cache blocks. Requires the prefix cache;
// blocks already parked physically stay parked until claimed or
// evicted, while every refcount-zero transition from now on freezes.
func (m *Manager) EnableCompressedCache() error {
	if !m.prefixOn {
		return fmt.Errorf("kvcache: compressed cache needs the prefix cache enabled")
	}
	if m.compressed {
		return fmt.Errorf("kvcache: compressed cache already enabled")
	}
	m.compressed = true
	return nil
}

// CompressedCacheEnabled reports whether cold prefix blocks are stored
// compressed.
func (m *Manager) CompressedCacheEnabled() bool { return m.compressed }

// CompressedBlocks returns the number of cold blocks currently held in
// compressed form (trie-advertised, holding no physical block).
func (m *Manager) CompressedBlocks() int { return len(m.prefix.frozen) }

// CompressedKVBytes returns the compressed footprint of the cold
// blocks.
func (m *Manager) CompressedKVBytes() int64 { return m.frozenComp }

// CompressionRatio returns the measured aggregate compression ratio of
// the cold blocks (orig/compressed; 1.0 while none is frozen — the
// neutral element, so consumers can divide by it — and 0 when the
// compressed cache is off).
func (m *Manager) CompressionRatio() float64 {
	switch {
	case !m.compressed:
		return 0
	case m.frozenComp == 0:
		return 1.0
	}
	return float64(m.frozenOrig) / float64(m.frozenComp)
}

// DecompressClaims returns the lifetime count of frozen blocks
// restored into physical blocks by prefix claims — each one paid the
// decompress price for a whole block of prefill work saved.
func (m *Manager) DecompressClaims() int64 { return m.decompClaims }

// DecompressedBytes returns the total logical bytes of the frozen
// blocks restored by prefix claims.
func (m *Manager) DecompressedBytes() int64 { return m.decompBytes }

// SetCodecFault installs a codec fault predicate: while it returns
// true, freeze skips compression and reports failure so the caller
// parks the block physically — the graceful-degradation path the
// fault-injection layer scripts (docs/robustness.md). Content already
// frozen stays thawable; only new freezes degrade.
func (m *Manager) SetCodecFault(fn func() bool) { m.codecFault = fn }

// CodecFallbacks returns the lifetime count of freezes that degraded
// to plain parking — injected faults and real codec rejections alike.
func (m *Manager) CodecFallbacks() int64 { return m.codecFallbacks }

// countFrozen adds a payload to the frozen byte sums (sign +1) or takes
// it out of them (sign −1).
func (m *Manager) countFrozen(sb *storedBlock, sign int64) {
	m.frozenOrig += sign * sb.origSize
	m.frozenComp += sign * sb.compSize()
}

// freeze detaches a refcount-zero advertised block's physical block,
// leaving the trie node advertising the content from its payload.
// Content is compressed once per node: the first freeze encodes it, and
// since content is immutable and addressed by key, a node thawed since
// freezes again on the payload it kept. Returns false — the caller then
// parks the block physically, the pre-compression behaviour — if the
// codec rejects the content (unreachable for the synthesized tensors,
// but the cache must degrade rather than lose content).
func (m *Manager) freeze(b int, node *prefixNode) bool {
	if m.codecFault != nil && m.codecFault() {
		m.codecFallbacks++
		return false
	}
	if node.payload == nil {
		sb, err := encode(blockContent(node.key, m.cfg.BlockTokens))
		if err != nil {
			m.codecFallbacks++
			return false
		}
		node.payload = sb
	}
	delete(m.prefix.byBlock, b)
	node.block = -1
	m.countFrozen(node.payload, +1)
	return true
}

// thaw restores a frozen node into a freshly popped physical block so
// a claim can reference it. The claim's integrity check on the payload
// is the structural Validate that decoding runs first — once it
// passes, decoding cannot fail — so the payload is never decoded here;
// the node keeps it for its next freeze. The caller has verified
// capacity (frozen matches are charged as resurrections by LookupCost)
// and owns the refcount it acquires here.
func (m *Manager) thaw(n *prefixNode) error {
	if sb := n.payload; sb.cm != nil {
		if err := sb.cm.Validate(); err != nil {
			return fmt.Errorf("kvcache: thawing a frozen block: %w", err)
		}
	}
	m.prefix.unpark(n)
	m.countFrozen(n.payload, -1)
	n.block = m.pop()
	m.prefix.byBlock[n.block] = n
	m.decompClaims++
	m.decompBytes += n.payload.origSize
	return nil
}

// blockContent synthesizes the deterministic BF16 KV tensor of a block
// from its token content key: the key's FNV-1a hash seeds an xorshift64
// stream mapped into a narrow centred value band, the exponent
// clustering TCA-TBE exploits. Identical token content always produces
// identical tensors, so the compressed round-trip is verifiable bit for
// bit against a re-synthesis.
func blockContent(key string, blockTokens int) *bf16.Matrix {
	data := make([]bf16.BF16, blockTokens*compressedKVCols)
	x := fnvString(fnvOffset64, key)
	if x == 0 {
		x = 0x9e3779b97f4a7c15 // xorshift must never run from 0
	}
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f := float32(int64(x>>40)-(1<<23)) / float32(1<<27)
		data[i] = bf16.FromFloat32(f)
	}
	return &bf16.Matrix{Rows: blockTokens, Cols: compressedKVCols, Data: data}
}
