package kvcache

import (
	"fmt"

	"zipserv/internal/bf16"
	"zipserv/internal/core"
)

// Compressed cold blocks: with EnableCompressedCache, a prefix-cache
// block whose refcount drops to zero is no longer parked as a physical
// block — its KV content is accounted at its TCA-TBE size on its own
// trie node and the physical block returns to the free list
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
// tensors — so a block's content is synthesized deterministically from
// its token content key. The synthesis is content-addressed and
// reproducible, which makes the compression real (the codec runs on
// actual BF16 data, CompressionRatio is a measured number) and the
// round trip verifiable. TCA-TBE is fixed-length, so a payload's size
// is a closed form of its exponent histogram (core.SizeOfHistogram):
// a node's first freeze records its sizes from one pass over the
// synthesized values, without building the tensor or encoding it, and
// the payload itself is made only when a thaw first reads it — content
// frozen and evicted unclaimed is never compressed — and kept only
// while claims keep thawing it (payloadHorizon). A claim validates
// the payload it thaws (load compressed, compute decompressed) without
// decoding it: nothing in the simulation reads the decoded tensor, and
// the cost model charges the decompress time regardless.
// CheckInvariants decodes every payload a trie node holds and compares
// it bit for bit with its key's generated content, and recomputes the
// sizes of the frozen nodes that hold none.

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

// SetCodecFault installs a codec fault predicate: while it returns
// true, freeze skips compression and reports failure so the caller
// parks the block physically — the graceful-degradation path the
// fault-injection layer scripts (docs/robustness.md). Content already
// frozen stays thawable; only new freezes degrade.
func (m *Manager) SetCodecFault(fn func() bool) { m.codecFault = fn }

// CodecFallbacks returns the lifetime count of freezes that degraded
// to plain parking — injected faults and real codec rejections alike.
func (m *Manager) CodecFallbacks() int64 { return m.codecFallbacks }

// countFrozen adds a frozen node's recorded sizes to the frozen byte
// sums (sign +1) or takes them out of them (sign −1).
func (m *Manager) countFrozen(sz blockSize, sign int64) {
	m.frozenOrig += sign * sz.orig
	m.frozenComp += sign * sz.comp
}

// freeze detaches a refcount-zero advertised block's physical block,
// leaving the trie node advertising the content at its recorded sizes.
// The sizes are computed once per node, by its first freeze, from the
// key alone (blockSizes); content is immutable and addressed by key,
// so a node thawed since freezes again on the sizes it kept. Returns
// false — the caller then parks the block physically, the
// pre-compression behaviour — if the codec rejects the content
// (unreachable for the synthesized tensors, but the cache must degrade
// rather than lose content).
func (m *Manager) freeze(b int, node *prefixNode) bool {
	if m.codecFault != nil && m.codecFault() {
		m.codecFallbacks++
		return false
	}
	if node.size == (blockSize{}) {
		sz, err := blockSizes(node.key, m.cfg.BlockTokens)
		if err != nil {
			m.codecFallbacks++
			return false
		}
		node.size = sz
	}
	delete(m.prefix.byBlock, b)
	node.block = -1
	m.countFrozen(node.size, +1)
	return true
}

// payloadHorizon is how many prefix claims in a row may leave a node
// unthawed before it loses its payload (dropIdlePayloads); its next
// thaw encodes the same bytes again. So the payloads a Manager holds
// follow the content its recent claims share (a prefix that one claim
// in 32 reuses keeps its payload), not every block the pool still
// advertises: how many of those a replica re-thaws depends on how often
// whole prompts recur, and kept for good their payloads (~6.5 KB each)
// swung one replica between ~100 and ~1000 of them from run to run of
// the same workload.
const payloadHorizon = 32

// thaw restores a frozen node into a freshly popped physical block so
// a claim can reference it. A thaw of a node holding no payload is the
// first reader of its bytes, so it encodes the payload from the key;
// the node keeps it while later claims keep thawing it
// (payloadHorizon), so a freeze never encodes, and neither does a thaw
// within the horizon. The claim's integrity check on the payload
// is the structural Validate that decoding runs first — once it
// passes, decoding cannot fail — so the payload is never decoded here.
// The caller has verified capacity (frozen matches are charged as
// resurrections by LookupCostHashed) and owns the refcount it acquires
// here.
func (m *Manager) thaw(n *prefixNode) error {
	if n.payload == nil {
		sb, err := encode(m.synthesize(n.key))
		if err != nil {
			return fmt.Errorf("kvcache: thawing a frozen block: %w", err)
		}
		n.payload = sb
	}
	m.prefix.keepPayload(n)
	if cm := n.payload.cm; cm != nil {
		if err := cm.Validate(); err != nil {
			return fmt.Errorf("kvcache: thawing a frozen block: %w", err)
		}
	}
	m.prefix.unpark(n)
	m.countFrozen(n.size, -1)
	n.block = m.pop()
	m.prefix.byBlock[n.block] = n
	m.decompClaims++
	return nil
}

// keepPayload moves a node a claim is thawing, which holds a payload,
// to the front of the payload list and stamps it with the claim's
// number (the claims before it, hits).
func (p *prefixIndex) keepPayload(n *prefixNode) {
	if n.payNext != nil {
		p.unlinkPayload(n)
	}
	head := &p.payloads
	n.payPrev, n.payNext = head, head.payNext
	head.payNext.payPrev = n
	head.payNext = n
	p.npayloads++
	n.thawedAt = p.hits
}

// dropIdlePayloads ends a claim's thaws: it drops the payload of every
// node that neither this claim nor the payloadHorizon−1 before it
// thawed. The list is in stamp order, so those nodes are at its back.
func (p *prefixIndex) dropIdlePayloads() {
	head := &p.payloads
	for last := head.payPrev; last != head && last.thawedAt+payloadHorizon <= p.hits; last = head.payPrev {
		last.payload = nil
		p.unlinkPayload(last)
	}
}

// unlinkPayload takes a node out of the payload list.
func (p *prefixIndex) unlinkPayload(n *prefixNode) {
	n.payPrev.payNext, n.payNext.payPrev = n.payNext, n.payPrev
	n.payPrev, n.payNext = nil, nil
	p.npayloads--
}

// kvSeed and kvStep are the generator behind a block's synthesized
// content: the key's FNV-1a hash seeds an xorshift64 stream, and each
// step maps to one BF16 value in a narrow centred band — the exponent
// clustering TCA-TBE exploits. fillBlock, storedBlock.verify and
// blockSizes all draw from it, so a block's tensor, its check and its
// sizes cannot disagree. kvStep is a pure function so that it inlines
// into all three loops.
func kvSeed(key string) uint64 {
	if x := fnvString(fnvOffset64, key); x != 0 {
		return x
	}
	return 0x9e3779b97f4a7c15 // xorshift must never run from 0
}

func kvStep(x uint64) (uint64, bf16.BF16) {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x, bf16.FromFloat32(float32(int64(x>>40)-(1<<23)) / float32(1<<27))
}

// fillBlock writes the deterministic BF16 KV content of the block key
// addresses into data, row-major. Identical token content always
// produces identical tensors, so the compressed round trip is
// verifiable bit for bit against the generator.
func fillBlock(key string, data []bf16.BF16) {
	x := kvSeed(key)
	for i := range data {
		x, data[i] = kvStep(x)
	}
}

// scratchBlock returns the Manager's one (BlockTokens × 256) tensor
// buffer, allocated on first use: every synthesis and every verify
// runs in it, so the codec round trip allocates no tensors. A Manager
// is driven by one goroutine, and each use ends before the next begins.
func (m *Manager) scratchBlock() *bf16.Matrix {
	if m.scratch.Data == nil {
		m.scratch = bf16.Matrix{
			Rows: m.cfg.BlockTokens, Cols: compressedKVCols,
			Data: make([]bf16.BF16, m.cfg.BlockTokens*compressedKVCols),
		}
	}
	return &m.scratch
}

// synthesize fills the scratch block with key's content and returns
// it, for encode: the payload copies what it keeps, so the scratch is
// free again once encode returns.
func (m *Manager) synthesize(key string) *bf16.Matrix {
	kv := m.scratchBlock()
	fillBlock(key, kv.Data)
	return kv
}

// blockSizes returns the byte accounting of encoding key's block
// content (encode(m.synthesize(key))) without building or encoding
// the tensor: one pass over the same stream counts exponents into the
// histogram of the matrix encode compresses — the tileShape geometry,
// with reshapeForTiles' zero tail — which fixes the encoded size.
// blockTokens must be positive.
func blockSizes(key string, blockTokens int) (blockSize, error) {
	n := blockTokens * compressedKVCols
	rows, cols := tileShape(n)
	var hist [256]int64
	hist[0] = int64(rows*cols - n) // zero padding: exponent 0
	x, v := kvSeed(key), bf16.BF16(0)
	for i := 0; i < n; i++ {
		x, v = kvStep(x)
		hist[v.Exponent()]++
	}
	comp, err := core.SizeOfHistogram(&hist, rows, cols, core.DefaultOptions())
	if err != nil {
		return blockSize{}, err
	}
	return blockSize{orig: 2 * int64(n), comp: int64(comp)}, nil // 2 bytes per BF16
}
