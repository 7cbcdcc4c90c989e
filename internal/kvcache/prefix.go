package kvcache

import (
	"container/heap"
	"encoding/binary"
	"fmt"
)

// Prefix caching (RadixAttention / vLLM automatic-prefix-caching
// style): prompt KV blocks are content-addressed, so requests sharing
// a prompt prefix (system prompts, few-shot templates, replayed
// traces) reuse the blocks an earlier request already computed instead
// of re-prefilling them. A physical block's reference count — the
// number of sequence block tables pointing at it — can then exceed one,
// and a registered block whose count drops to zero is not returned to
// the free list but parked in an LRU cached pool, still indexed by the
// prefix trie, so a later identical prompt can resurrect it with a
// refcount bump.
// Allocation pressure reclaims cached blocks LRU-first, preferring
// trie leaves so interior prefix chains stay matchable.
//
// Sharing is copy-on-write: writes only ever land in a sequence's last,
// partially filled block, and Extend replaces that block with a private
// copy before growing whenever it is shared (refcount > 1) or still
// advertised by the trie. Full interior blocks are immutable once
// written, so they are shared freely without copies.

// prefixNode is one block of cached prompt content in the prefix trie.
// The path from the root to a node spells a block-aligned prompt
// prefix; children are keyed by the exact token content of the next
// block, so matching is collision-free content addressing. The child
// map is allocated on first insertion — most nodes are leaves (unique
// prompt tails), and reads of a nil map are free.
type prefixNode struct {
	parent   *prefixNode
	children map[string]*prefixNode // nil until the first child registers
	key      string                 // content key in parent.children ("" for the root)
	block    int                    // physical block holding this content (-1 = frozen)
	lastUse  int64                  // LRU tick of the last claim/commit

	// path is the node's path fingerprint, fnvString(parent.path, key)
	// (fnvOffset64 at the root), computed once at registration so the
	// trie digest hashes nothing (see summary.go).
	path    uint64
	listIdx int // position in prefixIndex.nodes
	heapIdx int // position in its pool's heap (-1 = not pooled)

	// size is this content's byte accounting, recorded by the node's
	// first freeze from its key alone (zero = never frozen). payload is
	// its compressed form, made by the node's first thaw, the first
	// reader of the bytes (nil = never thawed). The node keeps both
	// until it is evicted, so no later freeze or thaw recomputes either.
	size    blockSize
	payload *storedBlock
}

// poolHeap is one pool's eviction order: a min-heap of pooled trie
// nodes under evictsBefore, each node recording its own slot
// (heapIdx) so a claim removes it, and a change to its key re-fixes
// it, in O(log n).
type poolHeap []*prefixNode

func (h poolHeap) Len() int           { return len(h) }
func (h poolHeap) Less(i, j int) bool { return evictsBefore(h[i], h[j]) }
func (h poolHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}

func (h *poolHeap) Push(x any) {
	n := x.(*prefixNode)
	n.heapIdx = len(*h)
	*h = append(*h, n)
}

func (h *poolHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	n.heapIdx = -1
	return n
}

// evictsBefore is the victim order of both pools: trie leaves before
// interior nodes, so prefix chains stay matchable, then least recently
// used first. Every touch takes a fresh tick, so the order is strict.
func evictsBefore(a, b *prefixNode) bool {
	if aLeaf, bLeaf := len(a.children) == 0, len(b.children) == 0; aLeaf != bLeaf {
		return aLeaf
	}
	return a.lastUse < b.lastUse
}

// prefixIndex is the Manager's prefix-cache state.
type prefixIndex struct {
	root      *prefixNode
	nodes     []*prefixNode       // every registered trie node, in no order
	byBlock   map[int]*prefixNode // registered blocks (owned or cached)
	cached    poolHeap            // refcount-zero registered blocks (reclaimable)
	frozen    poolHeap            // frozen nodes, holding no physical block (compressed cache only)
	committed map[int]commitMark  // seqID → deepest committed trie position
	cap       int                 // max pooled (cached + frozen) blocks retained (0 = unbounded)
	tick      int64
	shared    int // blocks with refcount > 1, maintained on transitions

	ctl *cacheCtl // adaptive pool sizing (nil = static cap)

	// onEvict, when set, sees each eviction victim before it is
	// unregistered (a test seam; nil in production).
	onEvict func(victim *prefixNode, includeFrozen bool)

	walkScratch []*prefixNode // reusable matched-chain buffer for walk

	hits        int64 // ClaimPrefixHashed calls that matched ≥ 1 block
	tokensSaved int64 // prompt tokens served from cache
	evictions   int64 // cached blocks reclaimed under pressure or cap
	cowCopies   int64 // shared blocks copied before a write
	walks       int64 // trie walks executed (lookup, claim, probe)
}

// newPrefixIndex returns an empty trie.
func newPrefixIndex() *prefixIndex {
	return &prefixIndex{
		root:      &prefixNode{block: -1, path: fnvOffset64, heapIdx: -1},
		byBlock:   make(map[int]*prefixNode),
		committed: make(map[int]commitMark),
	}
}

// pool returns the heap a pooled node belongs to: frozen nodes in the
// frozen pool, physically parked ones in the cached pool.
func (p *prefixIndex) pool(n *prefixNode) *poolHeap {
	if n.block < 0 {
		return &p.frozen
	}
	return &p.cached
}

// park adds a refcount-zero (or just frozen) node to its pool.
func (p *prefixIndex) park(n *prefixNode) { heap.Push(p.pool(n), n) }

// unpark takes a pooled node out of its pool.
func (p *prefixIndex) unpark(n *prefixNode) { heap.Remove(p.pool(n), n.heapIdx) }

// refix restores a pooled node's heap position after its key changed.
func (p *prefixIndex) refix(n *prefixNode) {
	if n.heapIdx >= 0 {
		heap.Fix(p.pool(n), n.heapIdx)
	}
}

// touch stamps a node with a fresh LRU tick.
func (p *prefixIndex) touch(n *prefixNode) {
	p.tick++
	n.lastUse = p.tick
	p.refix(n)
}

// register creates the trie node advertising block b's content key
// under parent: it links the node (a pooled parent gaining its first
// child stops being a leaf), stores its path fingerprint and lists it.
func (p *prefixIndex) register(parent *prefixNode, key string, b int) *prefixNode {
	n := &prefixNode{
		parent:  parent,
		key:     key,
		block:   b,
		path:    fnvString(parent.path, key),
		listIdx: len(p.nodes),
		heapIdx: -1,
	}
	if parent.children == nil {
		parent.children = make(map[string]*prefixNode)
	}
	parent.children[key] = n
	if len(parent.children) == 1 {
		p.refix(parent)
	}
	p.nodes = append(p.nodes, n)
	p.byBlock[b] = n
	return n
}

// unlist drops a node from the flat node list.
func (p *prefixIndex) unlist(n *prefixNode) {
	last := p.nodes[len(p.nodes)-1]
	p.nodes[n.listIdx], last.listIdx = last, n.listIdx
	p.nodes[len(p.nodes)-1] = nil
	p.nodes = p.nodes[:len(p.nodes)-1]
}

// commitMark remembers how deep a sequence's prompt has already been
// committed into the trie, so per-chunk CommitPrefixHashed calls resume
// the walk instead of re-hashing every block from the root each time.
type commitMark struct {
	node *prefixNode
	full int // full blocks committed so far
}

// contentKey maps a block's token content to an exact map key; the Go
// map hashes it, giving content-addressed lookup without collisions.
func contentKey(tokens []int) string {
	b := make([]byte, 8*len(tokens))
	for i, t := range tokens {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(t))
	}
	return string(b)
}

// HashedPrompt is a tokenised prompt whose per-block content keys were
// computed once up front, so every later trie walk over it — the
// admission capacity check, the claim, and each per-chunk commit — is
// pure map lookups with no hashing. Build it with Manager.HashPrompt
// and reuse it for the request's whole lifetime; the keys depend only
// on the token content, never on trie state.
type HashedPrompt struct {
	tokens []int
	keys   []string // one key per full block of the prompt
}

// Len returns the prompt's token count.
func (hp HashedPrompt) Len() int { return len(hp.tokens) }

// HashPrompt precomputes a prompt's per-block content keys at the
// manager's block granularity.
func (m *Manager) HashPrompt(tokens []int) HashedPrompt {
	return HashPromptTokens(tokens, m.cfg.BlockTokens)
}

// EnablePrefixCache turns on cross-request prefix reuse: from now on
// committed prompt blocks register in the trie. capBlocks bounds how
// many refcount-zero blocks the cache may keep parked (0 = unbounded:
// every free block is a candidate prefix block). It must be called
// before any allocation.
func (m *Manager) EnablePrefixCache(capBlocks int) error {
	if capBlocks < 0 {
		return fmt.Errorf("kvcache: prefix cache capacity %d must be non-negative", capBlocks)
	}
	if len(m.seqs) != 0 || len(m.freeList) != m.cfg.TotalBlocks {
		return fmt.Errorf("kvcache: prefix cache must be enabled on an empty manager")
	}
	m.prefixOn = true
	m.prefix.cap = capBlocks
	return nil
}

// PrefixCacheEnabled reports whether cross-request prefix reuse is on.
func (m *Manager) PrefixCacheEnabled() bool { return m.prefixOn }

// PrefixCacheCap returns the cached-pool bound (0 = unbounded).
func (m *Manager) PrefixCacheCap() int { return m.prefix.cap }

// SetPrefixCacheCap resizes the cached-pool bound at runtime
// (0 = unbounded). Shrinking evicts LRU leaf-first immediately, so the
// pool obeys the new bound on return — the adaptive sizing controller's
// actuator, also usable directly by operators.
func (m *Manager) SetPrefixCacheCap(capBlocks int) error {
	if !m.prefixOn {
		return fmt.Errorf("kvcache: prefix cache not enabled")
	}
	if capBlocks < 0 {
		return fmt.Errorf("kvcache: prefix cache capacity %d must be non-negative", capBlocks)
	}
	m.prefix.cap = capBlocks
	m.gen++
	m.enforceCap()
	return nil
}

// CachedBlocks returns the number of refcount-zero blocks parked in
// the prefix cache (reclaimable on demand).
func (m *Manager) CachedBlocks() int { return len(m.prefix.cached) }

// SharedBlocks returns the number of physical blocks referenced by
// more than one sequence — capacity that deduplication is saving right
// now. Maintained on refcount transitions (stats poll every scheduler
// iteration; a scan would be O(TotalBlocks)).
func (m *Manager) SharedBlocks() int { return m.prefix.shared }

// PrefixHits returns the number of ClaimPrefixHashed calls that matched at
// least one cached block.
func (m *Manager) PrefixHits() int64 { return m.prefix.hits }

// PrefixTokensSaved returns the total prompt tokens served from the
// cache instead of being re-prefilled.
func (m *Manager) PrefixTokensSaved() int64 { return m.prefix.tokensSaved }

// Walks returns the lifetime count of prefix-trie walks (lookups,
// claims and controller probes). Schedulers memoize lookups per trie
// generation; this counter is how tests prove the duplicated admission
// walk stays eliminated.
func (m *Manager) Walks() int64 { return m.prefix.walks }

// LookupCostHashed walks the prefix trie over the prompt's full blocks
// and returns how many leading tokens are already cached, and the
// admission-capacity price of that match. The match is block-aligned
// except when the whole prompt is cached, where it is capped at
// len(prompt)−1 so the sequence still computes (at least) its final
// prompt token — the position that samples the first output token.
// resurrect counts the matched blocks currently parked in the
// refcount-zero cached pool, which FreeBlocks reports as free
// capacity. Claiming those blocks removes them from the pool, so an
// admission check must charge them like fresh allocations; only
// matched blocks still referenced by live sequences are supplied for
// free. The lookup claims nothing (ClaimPrefixHashed does) and, with
// the prompt's block keys precomputed by HashPrompt, hashes nothing.
func (m *Manager) LookupCostHashed(hp HashedPrompt) (matched, resurrect int) {
	matched, nodes := m.walk(hp)
	for _, n := range nodes {
		// Frozen blocks hold no physical block, so claiming one pops a
		// fresh block for the decompressed content — the same charge as
		// resurrecting a parked block out of the reclaimable pool.
		if n.block < 0 || m.refcnt[n.block] == 0 {
			resurrect++
		}
	}
	return matched, resurrect
}

// walk returns the capped matched-token count and the matched blocks.
// The returned slice is the index's reusable scratch, valid until the
// next walk; callers consume it before any further lookup.
func (m *Manager) walk(hp HashedPrompt) (int, []*prefixNode) {
	m.prefix.walks++
	b := m.cfg.BlockTokens
	node := m.prefix.root
	matched := 0
	nodes := m.prefix.walkScratch[:0]
	for i := 0; i < len(hp.keys); i++ {
		child := node.children[hp.keys[i]]
		if child == nil {
			break
		}
		nodes = append(nodes, child)
		matched += b
		node = child
	}
	if matched >= len(hp.tokens) && matched > 0 {
		// Fully cached prompt: recompute the final token, which
		// partially consumes the tail block — the copy-on-write case
		// once the sequence grows into it — and claim only the blocks
		// the remaining tokens fill. Below two tokens per block the
		// tail block holds nothing but that final token, so it drops.
		matched = len(hp.tokens) - 1
		nodes = nodes[:BlocksFor(matched, b)]
	}
	m.prefix.walkScratch = nodes
	return matched, nodes
}

// ClaimPrefixHashed admits a new sequence whose prompt's cached prefix
// is claimed by reference instead of allocated: each matched block's
// refcount is bumped (resurrecting it from the cached pool when it was
// parked there) and the sequence's block table starts with the shared
// blocks. It returns the matched token count; 0 means no match and no
// sequence was created — the caller falls back to plain Allocate.
func (m *Manager) ClaimPrefixHashed(seqID int, hp HashedPrompt) (int, error) {
	if !m.prefixOn {
		return 0, fmt.Errorf("kvcache: prefix cache not enabled")
	}
	if _, dup := m.seqs[seqID]; dup {
		return 0, fmt.Errorf("kvcache: sequence %d already allocated", seqID)
	}
	matched, nodes := m.walk(hp)
	if matched == 0 {
		return 0, nil
	}
	st := getSeqState()
	for range nodes {
		st.table = append(st.table, -1)
	}
	// Claim the physically backed matches first: bumping their refcounts
	// takes them out of the reclaimable pool, so the thaw pops below can
	// never evict part of the chain being claimed.
	for i, n := range nodes {
		if n.block < 0 {
			continue
		}
		if m.refcnt[n.block] == 0 {
			m.prefix.unpark(n)
		}
		m.refcnt[n.block]++
		if m.refcnt[n.block] == 2 {
			m.prefix.shared++
		}
		m.prefix.touch(n)
		st.table[i] = n.block
	}
	// Then restore the frozen matches: each thaw pops a fresh physical
	// block (charged as a resurrection by LookupCostHashed) for the cold
	// content.
	for i, n := range nodes {
		if st.table[i] >= 0 {
			continue
		}
		if err := m.thaw(n); err != nil {
			// A corrupt payload fails its validation; the failed thaw must
			// not leak the chain claimed so far.
			for _, b := range st.table {
				if b >= 0 {
					m.releaseBlock(b)
				}
			}
			putSeqState(st)
			m.gen++
			return 0, err
		}
		m.prefix.touch(n)
		st.table[i] = n.block
	}
	st.tokens = matched
	m.seqs[seqID] = st
	// The claimed chain is already committed content: later commits
	// calls resume past it instead of re-walking from the root.
	m.prefix.committed[seqID] = commitMark{node: nodes[len(nodes)-1], full: len(nodes)}
	m.prefix.hits++
	m.prefix.tokensSaved += int64(matched)
	m.gen++ // resurrections and refcount bumps change later lookup costs
	return matched, nil
}

// CommitPrefixHashed registers the sequence's fully prefilled full prompt
// blocks in the trie so later requests can reuse them. Blocks whose
// content is already registered under another physical block keep the
// sequence's private copy unregistered (first writer wins); the walk
// continues through the existing chain so deeper blocks still
// register. Safe — and cheap — to call after every prefill chunk: the
// walk resumes from the sequence's last committed depth, so only new
// full blocks are visited (re-walking from the root would make a
// small-chunk prefill quadratic in prompt blocks).
// With the prefix cache off it does nothing, so the trie stays empty.
func (m *Manager) CommitPrefixHashed(seqID int, hp HashedPrompt, prefilled int) error {
	if !m.prefixOn {
		return nil
	}
	st, ok := m.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: unknown sequence %d", seqID)
	}
	if prefilled > len(hp.tokens) {
		prefilled = len(hp.tokens)
	}
	full := prefilled / m.cfg.BlockTokens
	if full > len(st.table) {
		full = len(st.table)
	}
	node, i := m.prefix.root, 0
	if mark, ok := m.prefix.committed[seqID]; ok && mark.full <= full &&
		m.prefix.byBlock[mark.node.block] == mark.node {
		// Resume past the committed depth; a mark whose node was
		// evicted (unregistered) is stale and falls back to the root.
		node, i = mark.node, mark.full
	}
	registered := false
	for ; i < full; i++ {
		key := hp.keys[i]
		child := node.children[key]
		if child == nil {
			if existing := m.prefix.byBlock[st.table[i]]; existing != nil {
				// The block is already advertised under different
				// content (stale chain after an eviction reshaped the
				// trie). Leave it; do not double-register.
				break
			}
			child = m.prefix.register(node, key, st.table[i])
			registered = true
		}
		m.prefix.touch(child)
		node = child
	}
	if i > 0 {
		m.prefix.committed[seqID] = commitMark{node: node, full: i}
	}
	if registered {
		m.gen++ // freshly advertised content changes later lookups
	}
	return nil
}

// releaseBlock drops one table reference to a block: shared blocks
// stay alive, and a block reaching refcount zero is parked in the
// cached pool when the trie still advertises it, or freed outright.
func (m *Manager) releaseBlock(b int) {
	m.refcnt[b]--
	if m.refcnt[b] == 1 {
		m.prefix.shared--
	}
	if m.refcnt[b] > 0 {
		return
	}
	m.gen++ // a refcount-zero transition changes later resurrect charges
	if node := m.prefix.byBlock[b]; node != nil {
		m.prefix.touch(node)
		if m.compressed && m.freeze(b, node) {
			// Cold content lives on in the node's payload; the physical
			// block is real free capacity again.
			m.freeList = append(m.freeList, b)
		}
		m.prefix.park(node)
		m.enforceCap()
		return
	}
	m.freeList = append(m.freeList, b)
}

// enforceCap evicts LRU pooled blocks (physically parked and frozen
// alike) until the configured capacity bound holds.
func (m *Manager) enforceCap() {
	if m.prefix.cap <= 0 {
		return
	}
	for len(m.prefix.cached)+len(m.prefix.frozen) > m.prefix.cap {
		if !m.evictOne(true) {
			return // unreachable: the pool is non-empty
		}
	}
}

// evictOne reclaims one pooled block, choosing the least recently used
// trie leaf so interior prefix chains survive; if every pooled node
// has children, the LRU interior node goes and its subtree is
// unregistered (pooled descendants are dropped too, owned descendants
// merely lose their trie advertisement). The victim is the smaller of
// the two pool heaps' minima. Allocation pressure passes
// includeFrozen=false — evicting a frozen node frees no physical block,
// so only physically parked victims can relieve a dry free list — while
// cap enforcement draws from both pools. Returns false when no
// candidate exists.
func (m *Manager) evictOne(includeFrozen bool) bool {
	p := m.prefix
	var victim *prefixNode
	if len(p.cached) > 0 {
		victim = p.cached[0]
	}
	if includeFrozen && len(p.frozen) > 0 && (victim == nil || evictsBefore(p.frozen[0], victim)) {
		victim = p.frozen[0]
	}
	if victim == nil {
		return false
	}
	if p.onEvict != nil {
		p.onEvict(victim, includeFrozen)
	}
	m.unregister(victim)
	return true
}

// unregister detaches a node's whole subtree from the trie, returning
// every physically cached block in it to the free list, taking frozen
// nodes out of the frozen byte sums and dropping every payload.
func (m *Manager) unregister(n *prefixNode) {
	p := m.prefix
	delete(n.parent.children, n.key)
	if len(n.parent.children) == 0 {
		p.refix(n.parent) // a pooled parent just became a leaf
	}
	m.gen++ // removed advertisements change later lookups
	var dfs func(*prefixNode)
	dfs = func(x *prefixNode) {
		p.unlist(x)
		if x.heapIdx >= 0 {
			p.unpark(x)
			p.evictions++
			if x.block >= 0 {
				m.freeList = append(m.freeList, x.block)
			}
		}
		if x.block < 0 {
			m.countFrozen(x.size, -1)
		} else {
			delete(p.byBlock, x.block)
		}
		x.payload = nil
		for _, c := range x.children {
			dfs(c)
		}
	}
	dfs(n)
}

// cowNeeded reports whether growing the sequence writes into a block
// it must not mutate: the last block is partially filled (the write
// target) and either shared with another sequence or still advertised
// by the trie as cached prefix content.
func (m *Manager) cowNeeded(st *seqState) bool {
	if st.tokens%m.cfg.BlockTokens == 0 {
		return false // last block full; growth writes fresh blocks only
	}
	last := st.table[len(st.table)-1]
	return m.refcnt[last] > 1 || m.prefix.byBlock[last] != nil
}

// copyOnWrite replaces the sequence's shared last block with a private
// copy (the caller has verified capacity). The shared original keeps
// its other references, or parks in the cached pool when this was the
// only one.
func (m *Manager) copyOnWrite(st *seqState) {
	old := st.table[len(st.table)-1]
	fresh := m.pop()
	st.table[len(st.table)-1] = fresh
	m.releaseBlock(old)
	m.prefix.cowCopies++
}
