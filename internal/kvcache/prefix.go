package kvcache

import (
	"encoding/binary"
	"fmt"
)

// Prefix caching (RadixAttention / vLLM automatic-prefix-caching
// style): prompt KV blocks are content-addressed, so requests sharing
// a prompt prefix (system prompts, few-shot templates, replayed
// traces) reuse the blocks an earlier request already computed instead
// of re-prefilling them. A physical block then has a reference count —
// the number of sequence block tables pointing at it — and a block
// whose count drops to zero is not returned to the free list but
// parked in an LRU cached pool, still indexed by the prefix trie, so a
// later identical prompt can resurrect it with a refcount bump.
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
	block    int                    // physical block holding this content (-1 while frozen)
	frozenID int                    // compressed-store key while frozen (0 = not frozen)
	lastUse  int64                  // LRU tick of the last claim/commit

	// payload is this content's compressed form, moved here out of the
	// store by the last thaw so the next freeze re-attaches it instead
	// of compressing again (nil = none; always nil while frozen).
	payload *storedBlock
}

// addChild links c under n, allocating the child map lazily.
func (n *prefixNode) addChild(key string, c *prefixNode) {
	if n.children == nil {
		n.children = make(map[string]*prefixNode)
	}
	n.children[key] = c
}

// prefixIndex is the Manager's prefix-cache state.
type prefixIndex struct {
	root      *prefixNode
	byBlock   map[int]*prefixNode // registered blocks (owned or cached)
	cached    map[int]*prefixNode // refcount-zero registered blocks (reclaimable)
	frozen    map[int]*prefixNode // frozenID → compressed cold nodes (compressed cache only)
	committed map[int]commitMark  // seqID → deepest committed trie position
	cap       int                 // max pooled (cached + frozen) blocks retained (0 = unbounded)
	tick      int64
	shared    int // blocks with refcount > 1, maintained on transitions

	ctl *cacheCtl // adaptive pool sizing (nil = static cap)

	walkScratch []*prefixNode // reusable matched-chain buffer for walk

	hits        int64 // ClaimPrefix calls that matched ≥ 1 block
	tokensSaved int64 // prompt tokens served from cache
	evictions   int64 // cached blocks reclaimed under pressure or cap
	cowCopies   int64 // shared blocks copied before a write
	walks       int64 // trie walks executed (lookup, claim, probe)
}

// commitMark remembers how deep a sequence's prompt has already been
// committed into the trie, so per-chunk CommitPrefix calls resume the
// walk instead of re-hashing every block from the root each time.
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

// Tokens returns the underlying token ids (not a copy).
func (hp HashedPrompt) Tokens() []int { return hp.tokens }

// HashPrompt precomputes a prompt's per-block content keys at the
// manager's block granularity.
func (m *Manager) HashPrompt(tokens []int) HashedPrompt {
	b := m.cfg.BlockTokens
	keys := make([]string, len(tokens)/b)
	for i := range keys {
		keys[i] = contentKey(tokens[i*b : (i+1)*b])
	}
	return HashedPrompt{tokens: tokens, keys: keys}
}

// EnablePrefixCache turns on cross-request prefix reuse. capBlocks
// bounds how many refcount-zero blocks the cache may keep parked
// (0 = unbounded: every free block is a candidate prefix block). It
// must be called before any allocation.
func (m *Manager) EnablePrefixCache(capBlocks int) error {
	if capBlocks < 0 {
		return fmt.Errorf("kvcache: prefix cache capacity %d must be non-negative", capBlocks)
	}
	if len(m.seqs) != 0 || len(m.freeList) != m.cfg.TotalBlocks {
		return fmt.Errorf("kvcache: prefix cache must be enabled on an empty manager")
	}
	m.prefix = &prefixIndex{
		root:      &prefixNode{block: -1},
		byBlock:   make(map[int]*prefixNode),
		cached:    make(map[int]*prefixNode),
		committed: make(map[int]commitMark),
		cap:       capBlocks,
	}
	m.refcnt = make([]int, m.cfg.TotalBlocks)
	return nil
}

// PrefixCacheEnabled reports whether cross-request prefix reuse is on.
func (m *Manager) PrefixCacheEnabled() bool { return m.prefix != nil }

// PrefixCacheCap returns the cached-pool bound (0 = unbounded).
func (m *Manager) PrefixCacheCap() int {
	if m.prefix == nil {
		return 0
	}
	return m.prefix.cap
}

// SetPrefixCacheCap resizes the cached-pool bound at runtime
// (0 = unbounded). Shrinking evicts LRU leaf-first immediately, so the
// pool obeys the new bound on return — the adaptive sizing controller's
// actuator, also usable directly by operators.
func (m *Manager) SetPrefixCacheCap(capBlocks int) error {
	if m.prefix == nil {
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
func (m *Manager) CachedBlocks() int {
	if m.prefix == nil {
		return 0
	}
	return len(m.prefix.cached)
}

// SharedBlocks returns the number of physical blocks referenced by
// more than one sequence — capacity that deduplication is saving right
// now. Maintained on refcount transitions (stats poll every scheduler
// iteration; a scan would be O(TotalBlocks)).
func (m *Manager) SharedBlocks() int {
	if m.prefix == nil {
		return 0
	}
	return m.prefix.shared
}

// PrefixHits returns the number of ClaimPrefix calls that matched at
// least one cached block.
func (m *Manager) PrefixHits() int64 {
	if m.prefix == nil {
		return 0
	}
	return m.prefix.hits
}

// PrefixTokensSaved returns the total prompt tokens served from the
// cache instead of being re-prefilled.
func (m *Manager) PrefixTokensSaved() int64 {
	if m.prefix == nil {
		return 0
	}
	return m.prefix.tokensSaved
}

// PrefixEvictions returns the number of cached blocks reclaimed (by
// allocation pressure or the capacity bound).
func (m *Manager) PrefixEvictions() int64 {
	if m.prefix == nil {
		return 0
	}
	return m.prefix.evictions
}

// Walks returns the lifetime count of prefix-trie walks (lookups,
// claims and controller probes). Schedulers memoize lookups per trie
// generation; this counter is how tests prove the duplicated admission
// walk stays eliminated.
func (m *Manager) Walks() int64 {
	if m.prefix == nil {
		return 0
	}
	return m.prefix.walks
}

// CowCopies returns the number of copy-on-write block copies taken
// before a write into a shared block.
func (m *Manager) CowCopies() int64 {
	if m.prefix == nil {
		return 0
	}
	return m.prefix.cowCopies
}

// Lookup walks the prefix trie over the prompt's full blocks and
// returns how many leading tokens are already cached. The match is
// block-aligned except when the whole prompt is cached, where it is
// capped at len(prompt)−1 so the sequence still computes (at least)
// its final prompt token — the position that samples the first output
// token. Lookup does not claim anything; ClaimPrefix does.
func (m *Manager) Lookup(prompt []int) int {
	matched, _ := m.LookupCost(prompt)
	return matched
}

// LookupCost is Lookup plus the admission-capacity price of the
// match: resurrect counts the matched blocks currently parked in the
// refcount-zero cached pool, which FreeBlocks reports as free
// capacity. Claiming those blocks removes them from the pool, so an
// admission check must charge them like fresh allocations; only
// matched blocks still referenced by live sequences are supplied for
// free.
func (m *Manager) LookupCost(prompt []int) (matched, resurrect int) {
	if m.prefix == nil {
		return 0, 0
	}
	return m.LookupCostHashed(m.HashPrompt(prompt))
}

// LookupCostHashed is LookupCost over a prompt whose block keys were
// precomputed with HashPrompt, so the walk hashes nothing.
func (m *Manager) LookupCostHashed(hp HashedPrompt) (matched, resurrect int) {
	if m.prefix == nil {
		return 0, 0
	}
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
		// Fully cached prompt: keep every block claimed but recompute
		// the final token, which partially consumes the tail block —
		// the copy-on-write case once the sequence grows into it.
		matched = len(hp.tokens) - 1
	}
	m.prefix.walkScratch = nodes
	return matched, nodes
}

// ClaimPrefix admits a new sequence whose prompt's cached prefix is
// claimed by reference instead of allocated: each matched block's
// refcount is bumped (resurrecting it from the cached pool when it was
// parked there) and the sequence's block table starts with the shared
// blocks. It returns the matched token count; 0 means no match and no
// sequence was created — the caller falls back to plain Allocate.
func (m *Manager) ClaimPrefix(seqID int, prompt []int) (int, error) {
	if m.prefix == nil {
		return 0, fmt.Errorf("kvcache: prefix cache not enabled")
	}
	return m.ClaimPrefixHashed(seqID, m.HashPrompt(prompt))
}

// ClaimPrefixHashed is ClaimPrefix over a prehashed prompt.
func (m *Manager) ClaimPrefixHashed(seqID int, hp HashedPrompt) (int, error) {
	if m.prefix == nil {
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
			delete(m.prefix.cached, n.block)
		}
		m.refcnt[n.block]++
		if m.refcnt[n.block] == 2 {
			m.prefix.shared++
		}
		m.prefix.tick++
		n.lastUse = m.prefix.tick
		st.table[i] = n.block
	}
	// Then restore the frozen matches: each thaw pops a fresh physical
	// block (charged as a resurrection by LookupCost) and decompresses
	// the cold content into it.
	for i, n := range nodes {
		if st.table[i] >= 0 {
			continue
		}
		if err := m.thaw(n); err != nil {
			// Unreachable (the store holds what freeze put there), but a
			// failed thaw must not leak the chain claimed so far.
			for _, b := range st.table {
				if b >= 0 {
					m.releaseBlock(b)
				}
			}
			putSeqState(st)
			m.gen++
			return 0, err
		}
		m.prefix.tick++
		n.lastUse = m.prefix.tick
		st.table[i] = n.block
	}
	st.tokens = matched
	m.seqs[seqID] = st
	// The claimed chain is already committed content: later CommitPrefix
	// calls resume past it instead of re-walking from the root.
	m.prefix.committed[seqID] = commitMark{node: nodes[len(nodes)-1], full: len(nodes)}
	m.prefix.hits++
	m.prefix.tokensSaved += int64(matched)
	m.gen++ // resurrections and refcount bumps change later lookup costs
	return matched, nil
}

// CommitPrefix registers the sequence's fully prefilled full prompt
// blocks in the trie so later requests can reuse them. Blocks whose
// content is already registered under another physical block keep the
// sequence's private copy unregistered (first writer wins); the walk
// continues through the existing chain so deeper blocks still
// register. Safe — and cheap — to call after every prefill chunk: the
// walk resumes from the sequence's last committed depth, so only new
// full blocks are visited (re-walking from the root would make a
// small-chunk prefill quadratic in prompt blocks).
func (m *Manager) CommitPrefix(seqID int, prompt []int, prefilled int) error {
	if m.prefix == nil {
		return nil
	}
	return m.CommitPrefixHashed(seqID, m.HashPrompt(prompt), prefilled)
}

// CommitPrefixHashed is CommitPrefix over a prehashed prompt.
func (m *Manager) CommitPrefixHashed(seqID int, hp HashedPrompt, prefilled int) error {
	if m.prefix == nil {
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
			child = &prefixNode{
				parent: node,
				key:    key,
				block:  st.table[i],
			}
			node.addChild(key, child)
			m.prefix.byBlock[st.table[i]] = child
			registered = true
		}
		m.prefix.tick++
		child.lastUse = m.prefix.tick
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
		m.prefix.tick++
		node.lastUse = m.prefix.tick
		if m.compStore != nil && m.freeze(b, node) {
			// Cold content lives on compressed; the physical block is
			// real free capacity again.
			m.freeList = append(m.freeList, b)
			m.enforceCap()
			return
		}
		m.prefix.cached[b] = node
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
// merely lose their trie advertisement). Allocation pressure passes
// includeFrozen=false — evicting a frozen node frees no physical block,
// so only physically parked victims can relieve a dry free list — while
// cap enforcement scans both pools. Returns false when no candidate
// exists.
func (m *Manager) evictOne(includeFrozen bool) bool {
	var victim *prefixNode
	leaf := false
	consider := func(n *prefixNode) {
		nLeaf := len(n.children) == 0
		switch {
		case victim == nil,
			nLeaf && !leaf,
			nLeaf == leaf && n.lastUse < victim.lastUse:
			victim, leaf = n, nLeaf
		}
	}
	for _, n := range m.prefix.cached {
		consider(n)
	}
	if includeFrozen {
		for _, n := range m.prefix.frozen {
			consider(n)
		}
	}
	if victim == nil {
		return false
	}
	m.unregister(victim)
	return true
}

// unregister detaches a node's whole subtree from the trie, returning
// every physically cached block in it to the free list and dropping
// frozen descendants from the compressed store and retained payloads
// from the rest.
func (m *Manager) unregister(n *prefixNode) {
	delete(n.parent.children, n.key)
	m.gen++ // removed advertisements change later lookups
	var dfs func(*prefixNode)
	dfs = func(x *prefixNode) {
		if x.frozenID != 0 {
			m.compStore.Delete(x.frozenID)
			delete(m.prefix.frozen, x.frozenID)
			x.frozenID = 0
			m.prefix.evictions++
		} else {
			x.payload = nil
			delete(m.prefix.byBlock, x.block)
			if _, parked := m.prefix.cached[x.block]; parked {
				delete(m.prefix.cached, x.block)
				m.freeList = append(m.freeList, x.block)
				m.prefix.evictions++
			}
		}
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
	if m.prefix == nil {
		return false
	}
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
	m.refcnt[fresh] = 1
	st.table[len(st.table)-1] = fresh
	m.releaseBlock(old)
	m.prefix.cowCopies++
}
