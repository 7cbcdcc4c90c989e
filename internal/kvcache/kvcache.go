// Package kvcache implements a paged KV-cache manager in the style of
// vLLM's PagedAttention (§6.5 of the ZipServ paper): device memory is
// carved into fixed-size token blocks, sequences own block tables, and
// capacity freed by weight compression converts directly into more
// resident tokens — the mechanism behind the paper's Figure 17 memory
// breakdown (KV capacity 5.07 → 8.60 GB, a 1.70× increase).
//
// The package also implements the paper's first future-work direction
// (§7): lossless KV-block compression with TCA-TBE. One payload type
// (compressed.go) carries it everywhere it is read: a cold prefix
// block's trie node records its encoded size when it freezes and holds
// its payload from its first thaw on (coldstore.go), a handoff export
// holds one payload per block (handoff.go), and CompressedStore keeps
// payloads by id for standalone use.
package kvcache

import (
	"fmt"
	"sync"

	"zipserv/internal/bf16"
)

// DefaultBlockTokens is the paged-attention block granularity.
const DefaultBlockTokens = 16

// Config sizes a cache.
type Config struct {
	// BlockTokens is the number of token positions per block.
	BlockTokens int
	// TotalBlocks is the number of blocks the device budget allows.
	TotalBlocks int
}

// seqState is one live sequence's allocation: its block table and token
// count together, so the scheduler hot path touches one map entry (and
// one pooled allocation) per sequence instead of two.
type seqState struct {
	table  []int
	tokens int
}

// seqStatePool recycles sequence states (and, through them, block-table
// backing arrays) across sequences and across Manager instances, so a
// steady-state serving loop admits and retires sequences without
// allocating.
var seqStatePool = sync.Pool{New: func() any { return new(seqState) }}

func getSeqState() *seqState { return seqStatePool.Get().(*seqState) }

func putSeqState(st *seqState) {
	st.table = st.table[:0]
	st.tokens = 0
	seqStatePool.Put(st)
}

// Manager allocates KV blocks to sequences. It is not safe for
// concurrent use; the serving engine serialises scheduler decisions,
// as vLLM's does.
//
// Every block is reference-counted: its refcount is the number of
// sequence block tables pointing at it. With EnablePrefixCache, blocks
// become content-addressed so requests sharing a prompt prefix share
// physical blocks (see prefix.go); without it nothing ever registers in
// the trie, so no block has more than one owner and a released block
// goes straight back to the free list.
type Manager struct {
	cfg      Config
	freeList []int
	seqs     map[int]*seqState

	refcnt []int        // per-block table references
	prefix *prefixIndex // the prefix trie (empty while the cache is off)
	pops   int64        // lifetime physical block claims
	gen    int64        // bumped on mutations that can change prefix lookups

	prefixOn   bool // EnablePrefixCache sets it
	compressed bool // EnableCompressedCache sets it

	summary    *PrefixSummary // memoized trie digest (see summary.go)
	summaryGen int64          // generation the memoized digest was built at

	// Compressed cold-block state (see coldstore.go).
	frozenOrig   int64 // logical bytes recorded on the frozen nodes
	frozenComp   int64 // compressed bytes recorded on the frozen nodes
	decompClaims int64 // frozen blocks restored by prefix claims

	// Codec fault injection (see SetCodecFault): while codecFault
	// returns true, freeze degrades to plain physical parking; each
	// degraded freeze counts into codecFallbacks (as does a real codec
	// rejection).
	codecFault     func() bool
	codecFallbacks int64

	scratch bf16.Matrix // one block's tensor, reused (see scratchBlock)
}

// NewManager builds a manager with all blocks free.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.BlockTokens <= 0 {
		return nil, fmt.Errorf("kvcache: block size %d must be positive", cfg.BlockTokens)
	}
	if cfg.TotalBlocks <= 0 {
		return nil, fmt.Errorf("kvcache: total blocks %d must be positive", cfg.TotalBlocks)
	}
	m := &Manager{
		cfg:      cfg,
		freeList: make([]int, cfg.TotalBlocks),
		seqs:     make(map[int]*seqState),
		refcnt:   make([]int, cfg.TotalBlocks),
		prefix:   newPrefixIndex(),
	}
	// Free list in descending order so allocation pops ascending ids.
	for i := range m.freeList {
		m.freeList[i] = cfg.TotalBlocks - 1 - i
	}
	return m, nil
}

// FreeBlocks returns the number of blocks available to allocations:
// truly free blocks plus refcount-zero cached prefix blocks, which are
// reclaimed LRU-first under pressure.
func (m *Manager) FreeBlocks() int { return len(m.freeList) + len(m.prefix.cached) }

// UsedBlocks returns the number of blocks owned by live sequences.
func (m *Manager) UsedBlocks() int { return m.cfg.TotalBlocks - m.FreeBlocks() }

// Pops returns the lifetime count of physical block claims (allocation
// and copy-on-write). Schedulers difference it around a mutation to
// learn the real capacity consumed — under prefix sharing the block
// table's length alone undercounts copy-on-write claims.
func (m *Manager) Pops() int64 { return m.pops }

// Generation returns a counter bumped on every mutation that can change
// the result of a prefix lookup (trie registration, eviction, refcount
// transitions, pool resizing). A scheduler memoizes LookupCostHashed per
// (request, generation): as long as the generation is unchanged, the
// memoized match is exact and the trie walk can be skipped.
func (m *Manager) Generation() int64 { return m.gen }

// BlocksFor returns the number of blocks needed to hold the given
// token count at the given block granularity. Schedulers use it to
// size conservative admission reservations.
func BlocksFor(tokens, blockTokens int) int {
	return (tokens + blockTokens - 1) / blockTokens
}

// Allocate admits a new sequence with an initial prompt of numTokens,
// claiming all blocks it needs. It fails atomically (no blocks leak)
// when capacity is insufficient or the id is in use.
func (m *Manager) Allocate(seqID, numTokens int) error {
	if _, dup := m.seqs[seqID]; dup {
		return fmt.Errorf("kvcache: sequence %d already allocated", seqID)
	}
	if numTokens <= 0 {
		return fmt.Errorf("kvcache: sequence %d needs positive token count, got %d", seqID, numTokens)
	}
	need := BlocksFor(numTokens, m.cfg.BlockTokens)
	if need > m.FreeBlocks() {
		return fmt.Errorf("kvcache: need %d blocks for %d tokens, only %d free", need, numTokens, m.FreeBlocks())
	}
	st := getSeqState()
	for i := 0; i < need; i++ {
		st.table = append(st.table, m.pop())
	}
	st.tokens = numTokens
	m.seqs[seqID] = st
	return nil
}

// AppendToken extends a sequence by one generated token, claiming a
// new block when it crosses a block boundary.
func (m *Manager) AppendToken(seqID int) error { return m.Extend(seqID, 1) }

// Extend grows a sequence by n tokens at once, claiming every block the
// growth crosses — the chunked-prefill entry point, where one scheduler
// iteration appends a whole prompt chunk rather than a single token. It
// fails atomically (no blocks claimed) when the free list cannot cover
// the growth.
func (m *Manager) Extend(seqID, n int) error {
	st, ok := m.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: unknown sequence %d", seqID)
	}
	if n <= 0 {
		return fmt.Errorf("kvcache: sequence %d extension must be positive, got %d", seqID, n)
	}
	tokens := st.tokens + n
	need := BlocksFor(tokens, m.cfg.BlockTokens) - len(st.table)
	cow := m.cowNeeded(st)
	total := need
	if cow {
		total++ // the private copy of the shared write-target block
	}
	if total > m.FreeBlocks() {
		return fmt.Errorf("kvcache: need %d more blocks to extend sequence %d by %d tokens, only %d free",
			total, seqID, n, m.FreeBlocks())
	}
	if cow {
		// The growth writes into a partially filled block that is
		// shared (or advertised by the prefix trie): copy it first so
		// shared prefix content is never mutated.
		m.copyOnWrite(st)
	}
	for i := 0; i < need; i++ {
		st.table = append(st.table, m.pop())
	}
	st.tokens = tokens
	return nil
}

// Free releases a finished or preempted sequence: every block drops
// one reference. Blocks still referenced by other sequences stay alive,
// blocks reaching refcount zero park in the cached pool while the trie
// advertises their content, and the rest return to the free list.
func (m *Manager) Free(seqID int) error {
	st, ok := m.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: unknown sequence %d", seqID)
	}
	for _, b := range st.table {
		m.releaseBlock(b)
	}
	delete(m.prefix.committed, seqID)
	delete(m.seqs, seqID)
	putSeqState(st)
	return nil
}

// pop claims one physical block at refcount 1, reclaiming LRU cached
// prefix blocks when the free list is dry — physically parked victims
// only: evicting a frozen node drops compressed bytes, not a physical
// block. Callers check FreeBlocks first.
func (m *Manager) pop() int {
	for len(m.freeList) == 0 && m.evictOne(false) {
	}
	b := m.freeList[len(m.freeList)-1]
	m.freeList = m.freeList[:len(m.freeList)-1]
	m.refcnt[b] = 1
	m.pops++
	return b
}

// CheckInvariants verifies the allocator's safety properties and that
// every block is accounted for: the stored refcounts equal the true
// table reference counts (so a block in two tables that no claim
// shared is caught), free/cached/owned partition the block space, and
// cached blocks are refcount-zero and trie-advertised — i.e. no block
// is ever freed while referenced. The trie's derived state must match
// the trie: the flat node list is exactly the reachable nodes, each
// node carries its path fingerprint, each pool heap holds exactly the
// pooled nodes of its kind in heap order, every payload a node holds
// decodes to the content its key addresses, the payload list links
// exactly the nodes holding one, in thaw order, every recorded size is the
// one its key's content encodes to, and the frozen byte sums match the
// frozen pool. Tests and the engine's failure-injection suite call
// this after every mutation batch.
func (m *Manager) CheckInvariants() error {
	// refs[b] counts block b's table references; the markers tag blocks
	// no table holds.
	const freeListed, parked = -1, -2
	refs := make([]int, m.cfg.TotalBlocks)
	for id, st := range m.seqs {
		for _, b := range st.table {
			if b < 0 || b >= len(refs) {
				return fmt.Errorf("kvcache: block %d out of range", b)
			}
			refs[b]++
		}
		need := BlocksFor(st.tokens, m.cfg.BlockTokens)
		if need != len(st.table) {
			return fmt.Errorf("kvcache: seq %d holds %d blocks for %d tokens (need %d)",
				id, len(st.table), st.tokens, need)
		}
	}
	for _, b := range m.freeList {
		if b < 0 || b >= len(refs) || refs[b] != 0 {
			return fmt.Errorf("kvcache: free-listed block %d out of range or held elsewhere", b)
		}
		refs[b] = freeListed
	}
	p := m.prefix
	if err := p.cached.check(false); err != nil {
		return err
	}
	if err := p.frozen.check(true); err != nil {
		return err
	}
	for _, n := range p.cached {
		if n.block >= len(refs) || refs[n.block] != 0 {
			return fmt.Errorf("kvcache: cached block %d out of range or held elsewhere", n.block)
		}
		refs[n.block] = parked
	}
	if err := m.checkTrie(); err != nil {
		return err
	}
	shared := 0
	for b, r := range refs {
		if r == 0 {
			return fmt.Errorf("kvcache: block %d neither referenced, free nor cached (leaked)", b)
		}
		if r > 1 {
			shared++
		}
		if want := max(r, 0); m.refcnt[b] != want {
			return fmt.Errorf("kvcache: block %d refcount %d, tables reference it %d times", b, m.refcnt[b], want)
		}
	}
	if p.shared != shared {
		return fmt.Errorf("kvcache: shared-block counter %d, true count %d", p.shared, shared)
	}
	return nil
}

// check verifies a pool heap's own structure: every slot's node is of
// the pool's kind (frozen nodes hold no physical block) and records
// that slot — so no node sits in two slots — and no node sorts before
// its heap parent.
func (h poolHeap) check(frozen bool) error {
	kind := "cached"
	if frozen {
		kind = "frozen"
	}
	for i, n := range h {
		if n.heapIdx != i {
			return fmt.Errorf("kvcache: %s pool slot %d holds a node indexed %d", kind, i, n.heapIdx)
		}
		if i > 0 && evictsBefore(n, h[(i-1)/2]) {
			return fmt.Errorf("kvcache: %s pool slot %d sorts before its heap parent", kind, i)
		}
		if frozen != (n.block < 0) {
			return fmt.Errorf("kvcache: %s pool slot %d holds a node of the other pool", kind, i)
		}
	}
	return nil
}

// checkTrie walks the trie from the root and verifies each node's
// derived state against it: the parent link, the stored path
// fingerprint, the slot in the flat node list (which must hold the
// reachable nodes and nothing else), the block index (which must hold
// the physically backed ones and nothing else), pool membership (which
// must hold exactly for frozen nodes and physically backed
// refcount-zero ones) and content (checkContent). The frozen nodes'
// recorded sizes must sum to the manager's frozen byte counters.
func (m *Manager) checkTrie() error {
	p := m.prefix
	if p.root.path != fnvOffset64 || p.root.heapIdx != -1 {
		return fmt.Errorf("kvcache: trie root carries fingerprint %#x, pool slot %d", p.root.path, p.root.heapIdx)
	}
	reachable, indexed, pooledReachable, payloads := 0, 0, 0, 0
	var orig, comp int64
	var walk func(*prefixNode) error
	walk = func(x *prefixNode) error {
		for key, c := range x.children {
			reachable++
			if c.parent != x || c.key != key {
				return fmt.Errorf("kvcache: trie node %q detached from its parent", key)
			}
			if c.path != fnvString(x.path, key) {
				return fmt.Errorf("kvcache: trie node for block %d carries a stale path fingerprint", c.block)
			}
			if c.listIdx < 0 || c.listIdx >= len(p.nodes) || p.nodes[c.listIdx] != c {
				return fmt.Errorf("kvcache: trie node for block %d missing from the node list", c.block)
			}
			pooled := c.block < 0 // frozen
			if pooled {
				if c.size == (blockSize{}) {
					return fmt.Errorf("kvcache: frozen trie node %q records no size", key)
				}
				orig += c.size.orig
				comp += c.size.comp
			} else {
				indexed++
				if p.byBlock[c.block] != c {
					return fmt.Errorf("kvcache: trie node for block %d not advertised", c.block)
				}
				pooled = m.refcnt[c.block] == 0
			}
			if h := *p.pool(c); pooled != (c.heapIdx >= 0 && c.heapIdx < len(h) && h[c.heapIdx] == c) {
				return fmt.Errorf("kvcache: trie node for block %d pooled=%v but pool slot %d", c.block, pooled, c.heapIdx)
			}
			if pooled {
				pooledReachable++
			}
			if err := m.checkContent(c); err != nil {
				return fmt.Errorf("kvcache: trie node for block %d: %w", c.block, err)
			}
			if (c.payload != nil) != (c.payNext != nil) {
				return fmt.Errorf("kvcache: trie node for block %d holds payload %p but payload list link %p",
					c.block, c.payload, c.payNext)
			}
			if c.payload != nil {
				payloads++
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(p.root); err != nil {
		return err
	}
	if reachable != len(p.nodes) || indexed != len(p.byBlock) {
		return fmt.Errorf("kvcache: node list holds %d nodes and block index %d, trie reaches %d and %d physically backed",
			len(p.nodes), len(p.byBlock), reachable, indexed)
	}
	if pooled := len(p.cached) + len(p.frozen); pooled != pooledReachable {
		return fmt.Errorf("kvcache: pools hold %d nodes, trie reaches %d pooled ones", pooled, pooledReachable)
	}
	if orig != m.frozenOrig || comp != m.frozenComp {
		return fmt.Errorf("kvcache: frozen byte sums %d/%d, frozen nodes record %d/%d",
			m.frozenOrig, m.frozenComp, orig, comp)
	}
	// The payload list holds the reachable nodes that hold a payload (each
	// linked, counted above) and nothing else, most recently thawed first.
	listed, head := 0, &p.payloads
	for x := head.payNext; x != head; x = x.payNext {
		if listed++; listed > payloads || x.payNext.payPrev != x ||
			x.payNext != head && x.payNext.thawedAt > x.thawedAt {
			return fmt.Errorf("kvcache: payload list out of thaw order or longer than the %d payloads the trie holds", payloads)
		}
	}
	if listed != payloads || p.npayloads != payloads {
		return fmt.Errorf("kvcache: payload list holds %d nodes and counts %d, trie holds %d payloads",
			listed, p.npayloads, payloads)
	}
	return nil
}

// checkContent verifies what a trie node keeps of its content against
// its key. A payload (made by the node's first thaw) must decode to the
// key's content — or a later thaw would restore the wrong bytes — and
// carry the node's recorded sizes. A node sized by a freeze but never
// thawed holds only its sizes, which the fused pass recomputes.
func (m *Manager) checkContent(c *prefixNode) error {
	switch {
	case c.payload != nil:
		if err := c.payload.verify(c.key, m.scratchBlock()); err != nil {
			return fmt.Errorf("payload: %w", err)
		}
		if got := c.payload.size(); got != c.size {
			return fmt.Errorf("recorded sizes %+v, its payload's %+v", c.size, got)
		}
	case c.size != (blockSize{}):
		want, err := blockSizes(c.key, m.cfg.BlockTokens)
		if err != nil {
			return err
		}
		if want != c.size {
			return fmt.Errorf("recorded sizes %+v, its key's content encodes to %+v", c.size, want)
		}
	}
	return nil
}

// Plan is a capacity plan: how much KV space a device has after
// weights and activations, in blocks and tokens.
type Plan struct {
	VRAMBytes       int64
	WeightBytes     int64
	ReservedBytes   int64 // activations, CUDA context, fragmentation
	KVBytesPerToken int64

	KVBytes   int64
	MaxTokens int64
	Blocks    int
}

// PlanCapacity computes the closed-form capacity plan of §6.5: the
// memory freed by weight compression is repurposed as KV blocks,
// converting static weight savings into dynamic throughput.
func PlanCapacity(vramBytes, weightBytes, reservedBytes, kvBytesPerToken int64, blockTokens int) (Plan, error) {
	if kvBytesPerToken <= 0 || blockTokens <= 0 {
		return Plan{}, fmt.Errorf("kvcache: invalid plan parameters")
	}
	kv := vramBytes - weightBytes - reservedBytes
	if kv < 0 {
		return Plan{}, fmt.Errorf("kvcache: weights (%d B) + reserved (%d B) exceed VRAM (%d B)",
			weightBytes, reservedBytes, vramBytes)
	}
	tokens := kv / kvBytesPerToken
	return Plan{
		VRAMBytes: vramBytes, WeightBytes: weightBytes, ReservedBytes: reservedBytes,
		KVBytesPerToken: kvBytesPerToken,
		KVBytes:         kv, MaxTokens: tokens,
		Blocks: int(tokens) / blockTokens,
	}, nil
}
