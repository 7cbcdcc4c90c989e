package kvcache

import (
	"fmt"

	"zipserv/internal/bf16"
)

// Compressed cold blocks: with EnableCompressedCache, a prefix-cache
// block whose refcount drops to zero is no longer parked as a physical
// block — its KV content is compressed into the TCA-TBE CompressedStore
// and the physical block returns to the free list immediately. The trie
// keeps advertising the content (the node survives with block = -1 and
// a compressed-store key), so a later identical prompt still matches;
// claiming such a "frozen" block pops a fresh physical block and
// decompresses into it. The trade is the paper's §7 future-work
// direction wired into the live path: cold prefix content costs only
// compressed bytes instead of whole KV blocks, buying effective cache
// capacity at a per-claim decompress price the engine cost model
// charges explicitly (gpu.KVDecompressTime).
//
// The engine is a discrete simulation — live blocks carry no real KV
// tensors — so the block content fed to the codec is synthesized
// deterministically from the block's token content key. The synthesis
// is content-addressed and reproducible, which makes the compression
// real (the codec runs on actual BF16 data, the store's Ratio() is a
// measured number) and the round-trip verifiable: CheckInvariants
// re-synthesizes every frozen block, and every payload a thawed node
// retains for its next freeze, and compares the decompressed tensor
// bit for bit.

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
	if m.prefix == nil {
		return fmt.Errorf("kvcache: compressed cache needs the prefix cache enabled")
	}
	if m.compStore != nil {
		return fmt.Errorf("kvcache: compressed cache already enabled")
	}
	m.compStore = NewCompressedStore()
	m.prefix.frozen = make(map[int]*prefixNode)
	return nil
}

// CompressedCacheEnabled reports whether cold prefix blocks are stored
// compressed.
func (m *Manager) CompressedCacheEnabled() bool { return m.compStore != nil }

// CompressedBlocks returns the number of cold blocks currently held in
// compressed form (trie-advertised, holding no physical block).
func (m *Manager) CompressedBlocks() int {
	if m.compStore == nil {
		return 0
	}
	return m.compStore.Len()
}

// CompressedKVBytes returns the compressed footprint of the cold
// blocks.
func (m *Manager) CompressedKVBytes() int64 {
	if m.compStore == nil {
		return 0
	}
	return m.compStore.CompressedBytes()
}

// CompressionRatio returns the measured aggregate compression ratio of
// the cold blocks (orig/compressed; 1.0 while the store is empty, 0
// when the compressed cache is off).
func (m *Manager) CompressionRatio() float64 {
	if m.compStore == nil {
		return 0
	}
	return m.compStore.Ratio()
}

// DecompressClaims returns the lifetime count of frozen blocks
// restored into physical blocks by prefix claims — each one paid the
// decompress price for a whole block of prefill work saved.
func (m *Manager) DecompressClaims() int64 { return m.decompClaims }

// DecompressedBytes returns the total logical bytes decompressed by
// prefix claims.
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

// freeze compresses a refcount-zero advertised block's content and
// detaches the physical block, leaving the trie node advertising the
// content from the compressed store. Content is compressed once per
// node: a node thawed earlier still holds the payload its thaw took
// out of the store, and since content is immutable and addressed by
// key, re-attaching it stores exactly the bytes a fresh Put would.
// Returns false — the caller then parks the block physically, the
// pre-compression behaviour — if the codec rejects the content
// (unreachable for the synthesized tensors, but the cache must degrade
// rather than lose content).
func (m *Manager) freeze(b int, node *prefixNode) bool {
	if m.codecFault != nil && m.codecFault() {
		m.codecFallbacks++
		return false
	}
	m.frozenSeq++
	id := m.frozenSeq
	if node.payload != nil {
		m.compStore.attach(id, node.payload)
		node.payload = nil
	} else if err := m.compStore.Put(id, blockContent(node.key, m.cfg.BlockTokens)); err != nil {
		m.frozenSeq--
		m.codecFallbacks++
		return false
	}
	delete(m.prefix.byBlock, b)
	node.block = -1
	node.frozenID = id
	m.prefix.frozen[id] = node
	return true
}

// thaw restores a frozen node's content into a freshly popped physical
// block so a claim can reference it. The decompression through Get is
// the claim's integrity check on the payload (Validate); the payload
// then moves out of the store and its accounting onto the node, for
// the node's next freeze to reuse. The caller has verified capacity
// (frozen matches are charged as resurrections by LookupCost) and owns
// the refcount it acquires here.
func (m *Manager) thaw(n *prefixNode) error {
	kv, err := m.compStore.Get(n.frozenID)
	if err != nil {
		return fmt.Errorf("kvcache: thawing frozen block %d: %w", n.frozenID, err)
	}
	n.payload = m.compStore.detach(n.frozenID)
	delete(m.prefix.frozen, n.frozenID)
	n.frozenID = 0
	b := m.pop()
	n.block = b
	m.prefix.byBlock[b] = n
	m.refcnt[b] = 1
	m.decompClaims++
	m.decompBytes += int64(kv.SizeBytes())
	return nil
}

// blockContent synthesizes the deterministic BF16 KV tensor of a block
// from its token content key: an FNV-1a hash of the key seeds an
// xorshift64 stream mapped into a narrow centred value band, the
// exponent clustering TCA-TBE exploits. Identical token content always
// produces identical tensors, so the compressed round-trip is
// verifiable bit for bit against a re-synthesis.
func blockContent(key string, blockTokens int) *bf16.Matrix {
	data := make([]bf16.BF16, blockTokens*compressedKVCols)
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 0x9e3779b97f4a7c15 // xorshift must never run from 0
	}
	x := h
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f := float32(int64(x>>40)-(1<<23)) / float32(1<<27)
		data[i] = bf16.FromFloat32(f)
	}
	return &bf16.Matrix{Rows: blockTokens, Cols: compressedKVCols, Data: data}
}
