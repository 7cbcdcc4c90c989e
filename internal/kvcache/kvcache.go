// Package kvcache implements a paged KV-cache manager in the style of
// vLLM's PagedAttention (§6.5 of the ZipServ paper): device memory is
// carved into fixed-size token blocks, sequences own block tables, and
// capacity freed by weight compression converts directly into more
// resident tokens — the mechanism behind the paper's Figure 17 memory
// breakdown (KV capacity 5.07 → 8.60 GB, a 1.70× increase).
//
// The package also implements the paper's first future-work direction
// (§7): lossless KV-block compression with TCA-TBE, in CompressedStore.
package kvcache

import (
	"fmt"
	"sort"
	"sync"
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
// With EnablePrefixCache, blocks become reference-counted and
// content-addressed so requests sharing a prompt prefix share physical
// blocks (see prefix.go); without it, every block has exactly one
// owner and behaviour is unchanged.
type Manager struct {
	cfg      Config
	freeList []int
	seqs     map[int]*seqState

	prefix *prefixIndex // nil = prefix caching off
	refcnt []int        // per-block table references (prefix mode only)
	pops   int64        // lifetime physical block claims
	gen    int64        // bumped on mutations that can change prefix lookups

	summary    *PrefixSummary // memoized trie digest (see summary.go)
	summaryGen int64          // generation the memoized digest was built at

	// Compressed cold-block state (see coldstore.go; nil = off).
	compStore    *CompressedStore
	frozenSeq    int   // next compressed-store key (ids start at 1)
	decompClaims int64 // frozen blocks restored by prefix claims
	decompBytes  int64 // logical bytes decompressed by those claims

	// Codec fault injection (see SetCodecFault): while codecFault
	// returns true, freeze degrades to plain physical parking; each
	// degraded freeze counts into codecFallbacks (as does a real codec
	// rejection).
	codecFault     func() bool
	codecFallbacks int64
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
func (m *Manager) FreeBlocks() int {
	n := len(m.freeList)
	if m.prefix != nil {
		n += len(m.prefix.cached)
	}
	return n
}

// UsedBlocks returns the number of blocks owned by live sequences.
func (m *Manager) UsedBlocks() int { return m.cfg.TotalBlocks - m.FreeBlocks() }

// Pops returns the lifetime count of physical block claims (allocation
// and copy-on-write). Schedulers difference it around a mutation to
// learn the real capacity consumed — under prefix sharing the block
// table's length alone undercounts copy-on-write claims.
func (m *Manager) Pops() int64 { return m.pops }

// Generation returns a counter bumped on every mutation that can change
// the result of a prefix lookup (trie registration, eviction, refcount
// transitions, pool resizing). A scheduler memoizes LookupCost per
// (request, generation): as long as the generation is unchanged, the
// memoized match is exact and the trie walk can be skipped.
func (m *Manager) Generation() int64 { return m.gen }

// Sequences returns the ids of live sequences in ascending order.
func (m *Manager) Sequences() []int {
	out := make([]int, 0, len(m.seqs))
	for id := range m.seqs {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Tokens returns the token count of a sequence (0 if absent).
func (m *Manager) Tokens(seqID int) int {
	if st := m.seqs[seqID]; st != nil {
		return st.tokens
	}
	return 0
}

// BlockTable returns a copy of the sequence's block table.
func (m *Manager) BlockTable(seqID int) ([]int, error) {
	st, ok := m.seqs[seqID]
	if !ok {
		return nil, fmt.Errorf("kvcache: unknown sequence %d", seqID)
	}
	return append([]int(nil), st.table...), nil
}

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
		b := m.pop()
		if m.refcnt != nil {
			m.refcnt[b] = 1
		}
		st.table = append(st.table, b)
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
		b := m.pop()
		if m.refcnt != nil {
			m.refcnt[b] = 1
		}
		st.table = append(st.table, b)
	}
	st.tokens = tokens
	return nil
}

// Free releases a finished or preempted sequence: every block drops
// one reference. Without prefix caching that returns each block to the
// free list; with it, blocks still referenced by other sequences stay
// alive, and blocks reaching refcount zero park in the cached pool
// while the trie advertises their content.
func (m *Manager) Free(seqID int) error {
	st, ok := m.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: unknown sequence %d", seqID)
	}
	if m.prefix != nil {
		for _, b := range st.table {
			m.releaseBlock(b)
		}
		delete(m.prefix.committed, seqID)
	} else {
		m.freeList = append(m.freeList, st.table...)
	}
	delete(m.seqs, seqID)
	putSeqState(st)
	return nil
}

// pop claims one physical block, reclaiming LRU cached prefix blocks
// when the free list is dry. Callers check FreeBlocks first.
func (m *Manager) pop() int {
	if len(m.freeList) == 0 && m.prefix != nil {
		for len(m.freeList) == 0 {
			// Physically parked victims only: evicting a frozen node
			// drops compressed bytes, not a physical block.
			if !m.evictOne(false) {
				break
			}
		}
	}
	b := m.freeList[len(m.freeList)-1]
	m.freeList = m.freeList[:len(m.freeList)-1]
	m.pops++
	return b
}

// CheckInvariants verifies the allocator's safety properties and every
// block is accounted for. Without prefix caching no block may be owned
// twice across tables and the free list; with it, the stored refcounts
// must equal the true table reference counts, free/cached/owned must
// partition the block space, and cached blocks must be refcount-zero
// and trie-advertised — i.e. no block is ever freed while referenced.
// Tests and the engine's failure-injection suite call this after every
// mutation batch.
func (m *Manager) CheckInvariants() error {
	refs := make(map[int]int, m.cfg.TotalBlocks)
	for id, st := range m.seqs {
		for _, b := range st.table {
			if b < 0 || b >= m.cfg.TotalBlocks {
				return fmt.Errorf("kvcache: block %d out of range", b)
			}
			refs[b]++
			if m.prefix == nil && refs[b] > 1 {
				return fmt.Errorf("kvcache: block %d double-owned without prefix sharing", b)
			}
		}
		need := BlocksFor(st.tokens, m.cfg.BlockTokens)
		if need != len(st.table) {
			return fmt.Errorf("kvcache: seq %d holds %d blocks for %d tokens (need %d)",
				id, len(st.table), st.tokens, need)
		}
	}
	for _, b := range m.freeList {
		if refs[b] > 0 {
			return fmt.Errorf("kvcache: block %d on free list while referenced %d times", b, refs[b])
		}
		refs[b]-- // mark free: -1 distinguishes from unseen
		if refs[b] < -1 {
			return fmt.Errorf("kvcache: block %d on free list twice", b)
		}
	}

	if m.prefix == nil {
		if len(refs) != m.cfg.TotalBlocks {
			return fmt.Errorf("kvcache: %d blocks tracked, want %d", len(refs), m.cfg.TotalBlocks)
		}
		return nil
	}

	tracked, shared := 0, 0
	for b := 0; b < m.cfg.TotalBlocks; b++ {
		want := refs[b]
		if want < 0 {
			want = 0 // free-listed
		}
		if m.refcnt[b] != want {
			return fmt.Errorf("kvcache: block %d refcount %d, tables reference it %d times", b, m.refcnt[b], want)
		}
		if want > 1 {
			shared++
		}
		node, parked := m.prefix.cached[b]
		if parked {
			if want != 0 {
				return fmt.Errorf("kvcache: block %d cached while referenced %d times", b, want)
			}
			if m.prefix.byBlock[b] == nil || node.block != b {
				return fmt.Errorf("kvcache: cached block %d not advertised by the trie", b)
			}
		}
		if _, seen := refs[b]; seen || parked {
			tracked++
		}
	}
	for b, node := range m.prefix.byBlock {
		if node.block != b {
			return fmt.Errorf("kvcache: trie node for block %d points at block %d", b, node.block)
		}
		if node.frozenID != 0 {
			return fmt.Errorf("kvcache: trie node for block %d still carries frozen id %d", b, node.frozenID)
		}
		if node.parent == nil || node.parent.children[node.key] != node {
			return fmt.Errorf("kvcache: trie node for block %d detached from its parent", b)
		}
		if node.payload != nil {
			// A payload kept from a thaw must still be exactly the
			// content its key addresses, or the next freeze would store
			// the wrong bytes.
			kv, err := node.payload.decode()
			if err != nil {
				return fmt.Errorf("kvcache: payload retained by block %d unreadable: %w", b, err)
			}
			if !kv.Equal(blockContent(node.key, m.cfg.BlockTokens)) {
				return fmt.Errorf("kvcache: payload retained by block %d differs from its key's content", b)
			}
		}
		if m.refcnt[b] == 0 {
			if _, parked := m.prefix.cached[b]; !parked {
				return fmt.Errorf("kvcache: registered block %d unreferenced but not cached (leaked)", b)
			}
		}
	}
	if tracked != m.cfg.TotalBlocks {
		return fmt.Errorf("kvcache: %d blocks tracked, want %d", tracked, m.cfg.TotalBlocks)
	}
	if m.prefix.shared != shared {
		return fmt.Errorf("kvcache: shared-block counter %d, true count %d", m.prefix.shared, shared)
	}
	if m.compStore != nil {
		// Frozen nodes hold no physical block but must stay advertised,
		// be backed by the compressed store one-for-one, and decompress
		// bit-exactly to the content their key addresses.
		if got, want := len(m.prefix.frozen), m.compStore.Len(); got != want {
			return fmt.Errorf("kvcache: %d frozen trie nodes, compressed store holds %d blocks", got, want)
		}
		for id, n := range m.prefix.frozen {
			if n.frozenID != id {
				return fmt.Errorf("kvcache: frozen node under id %d carries id %d", id, n.frozenID)
			}
			if n.block != -1 {
				return fmt.Errorf("kvcache: frozen node %d still holds physical block %d", id, n.block)
			}
			if n.payload != nil {
				return fmt.Errorf("kvcache: frozen node %d still holds a retained payload", id)
			}
			if n.parent == nil || n.parent.children[n.key] != n {
				return fmt.Errorf("kvcache: frozen node %d detached from its parent", id)
			}
			kv, err := m.compStore.Get(id)
			if err != nil {
				return fmt.Errorf("kvcache: frozen node %d unreadable: %w", id, err)
			}
			if !kv.Equal(blockContent(n.key, m.cfg.BlockTokens)) {
				return fmt.Errorf("kvcache: frozen node %d decompressed content differs from its key's", id)
			}
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
