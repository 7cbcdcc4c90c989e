package kvcache

import "sort"

// Prefix-trie summaries (docs/routing.md): a replica exports a compact,
// immutable digest of what its prefix trie currently advertises so a
// fleet router can estimate, without any cross-replica RPC, how many
// leading prompt tokens each replica could serve from cache. The digest
// rides the replica's stats snapshot and is rebuilt at most once per
// trie generation (Manager.Generation), i.e. on the admission-epoch
// cadence the scheduler already polls stats on.
//
// Two structures, both over *path* fingerprints (a rolling FNV-1a hash
// of the block content keys from the root), so identical block content
// under different prefixes never aliases:
//
//   - Roots: the exact, sorted fingerprints of the trie's depth-1
//     children (first prompt blocks). Small — one entry per distinct
//     cached first block (≈ one per tenant/system prompt) — and exact,
//     so a router's first-block test has no false positives.
//   - Bloom: a bloom filter over every registered node's path
//     fingerprint, sized at ~summaryBloomBitsPerEntry bits per entry
//     with summaryBloomK probes (false-positive rate
//     p = (1 − e^(−kn/m))^k ≈ 1.2% at m/n = 10, k = 4), used to extend
//     a root match block by block down the prompt.
//
// A false positive only overestimates one candidate's overlap by some
// blocks — the router's load band still bounds the damage — and the
// exact Roots gate means a replica with no trace of the prompt's first
// block is never preferred at all.

// PrefixSummary is an immutable digest of a prefix trie. It is shared
// by pointer across stats snapshots; never mutate one after Build.
type PrefixSummary struct {
	// BlockTokens is the trie's block granularity; match estimates are
	// multiples of it.
	BlockTokens int `json:"block_tokens"`
	// Blocks is the number of registered trie nodes (physically cached,
	// live-referenced, or frozen) the digest covers.
	Blocks int `json:"blocks"`
	// Roots holds the sorted path fingerprints of the depth-1 nodes.
	Roots []uint64 `json:"roots,omitempty"`
	// Bloom is the filter over all registered path fingerprints, as
	// 64-bit words (power-of-two total bits).
	Bloom []uint64 `json:"bloom,omitempty"`
	// BloomK is the number of probes per membership test.
	BloomK int `json:"bloom_k,omitempty"`
	// Epoch is the trie generation the digest was built at; a router
	// uses changes in it to age summaries.
	Epoch int64 `json:"epoch"`
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	summaryBloomBitsPerEntry = 10
	summaryBloomMinBits      = 256
	summaryBloomK            = 4
)

// fnvString folds one content key into a rolling FNV-1a state. Chaining
// states from fnvOffset64 through a prompt's block keys yields the path
// fingerprint of the block-aligned prefix ending at each block.
func fnvString(h uint64, key string) uint64 {
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// bloomBits returns the filter size (in bits) for n entries: the next
// power of two at or above summaryBloomBitsPerEntry bits per entry,
// floored at summaryBloomMinBits so tiny tries still dilute collisions.
func bloomBits(n int) int {
	bits := summaryBloomMinBits
	for bits < n*summaryBloomBitsPerEntry {
		bits <<= 1
	}
	return bits
}

// bloomAdd sets the filter's summaryBloomK probe bits for fingerprint h
// via double hashing; len(words) must be a power of two.
func bloomAdd(words []uint64, k int, h uint64) {
	mask := uint64(len(words)*64 - 1)
	h2 := (h >> 33) | 1 // odd, so probes cycle the whole filter
	for i := 0; i < k; i++ {
		bit := (h + uint64(i)*h2) & mask
		words[bit>>6] |= 1 << (bit & 63)
	}
}

// bloomTest reports whether fingerprint h may be in the filter.
func bloomTest(words []uint64, k int, h uint64) bool {
	if len(words) == 0 {
		return false
	}
	mask := uint64(len(words)*64 - 1)
	h2 := (h >> 33) | 1
	for i := 0; i < k; i++ {
		bit := (h + uint64(i)*h2) & mask
		if words[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// PrefixSummary digests the current prefix trie, or returns nil when
// prefix caching is off. The digest is memoized per trie generation:
// polling it every scheduler iteration costs one comparison unless the
// trie actually changed since the last build, and a build reads each
// registered node's stored path fingerprint once, hashing nothing.
func (m *Manager) PrefixSummary() *PrefixSummary {
	if !m.prefixOn {
		return nil
	}
	if m.summary != nil && m.summaryGen == m.gen {
		return m.summary
	}
	nodes := m.prefix.nodes
	var roots []uint64
	for _, n := range nodes {
		if n.parent == m.prefix.root {
			roots = append(roots, n.path)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	s := &PrefixSummary{
		BlockTokens: m.cfg.BlockTokens,
		Blocks:      len(nodes),
		Roots:       roots,
		Epoch:       m.gen,
	}
	if len(nodes) > 0 {
		s.Bloom = make([]uint64, bloomBits(len(nodes))/64)
		s.BloomK = summaryBloomK
		for _, n := range nodes {
			bloomAdd(s.Bloom, s.BloomK, n.path)
		}
	}
	m.summary, m.summaryGen = s, m.gen
	return s
}

// HashPromptTokens precomputes a prompt's per-block content keys at an
// explicit block granularity — Manager.HashPrompt for callers (routers)
// that hold no Manager. A non-positive blockTokens falls back to
// DefaultBlockTokens.
func HashPromptTokens(tokens []int, blockTokens int) HashedPrompt {
	if blockTokens <= 0 {
		blockTokens = DefaultBlockTokens
	}
	keys := make([]string, len(tokens)/blockTokens)
	for i := range keys {
		keys[i] = contentKey(tokens[i*blockTokens : (i+1)*blockTokens])
	}
	return HashedPrompt{tokens: tokens, keys: keys}
}

// MatchTokens estimates how many leading prompt tokens the summarised
// trie could serve from cache: the first block must hit the exact Roots
// set (no false positives at depth 1), deeper blocks extend the match
// while their path fingerprints test positive in the bloom filter, and
// — mirroring Manager.LookupCostHashed — a fully cached prompt is capped at
// len−1 so the final token is always computed. The prompt must be
// hashed at the summary's BlockTokens granularity (HashPromptTokens).
// Bloom false positives can overestimate by whole blocks; the estimate
// is a routing hint, never an admission guarantee.
func (s *PrefixSummary) MatchTokens(hp HashedPrompt) int {
	if s == nil || s.BlockTokens <= 0 || len(s.Roots) == 0 || len(hp.keys) == 0 {
		return 0
	}
	h := fnvString(fnvOffset64, hp.keys[0])
	i := sort.Search(len(s.Roots), func(i int) bool { return s.Roots[i] >= h })
	if i == len(s.Roots) || s.Roots[i] != h {
		return 0
	}
	matched := 1
	for matched < len(hp.keys) {
		h = fnvString(h, hp.keys[matched])
		if !bloomTest(s.Bloom, s.BloomK, h) {
			break
		}
		matched++
	}
	tokens := matched * s.BlockTokens
	if tokens >= hp.Len() {
		tokens = hp.Len() - 1
	}
	return tokens
}

// MergePrefixSummaries folds per-replica digests into one fleet-level
// digest for aggregated stats: Blocks sum, Roots union (sorted, exact),
// Bloom words OR together when every summary agrees on filter size and
// probe count (otherwise the merged bloom is dropped — a fleet of
// differently sized filters cannot be OR'd soundly), Epoch is the
// newest. Summaries disagreeing on BlockTokens drop Roots and Bloom
// too: fingerprints at different granularities never compare. The
// merged digest is informational (the fleet's total advertised cache);
// routing always scores against the per-replica originals.
func MergePrefixSummaries(sums []*PrefixSummary) *PrefixSummary {
	var out *PrefixSummary
	granularityOK, bloomsOK := true, true
	for _, s := range sums {
		if s == nil {
			continue
		}
		if out == nil {
			out = &PrefixSummary{BlockTokens: s.BlockTokens}
		}
		out.Blocks += s.Blocks
		out.Roots = append(out.Roots, s.Roots...)
		if s.Epoch > out.Epoch {
			out.Epoch = s.Epoch
		}
		if s.BlockTokens != out.BlockTokens {
			granularityOK = false
		}
		if s.Bloom == nil {
			continue // empty trie: nothing to OR, nothing to disagree on
		}
		if out.Bloom == nil {
			out.Bloom = make([]uint64, len(s.Bloom))
			out.BloomK = s.BloomK
		}
		if len(s.Bloom) != len(out.Bloom) || s.BloomK != out.BloomK {
			bloomsOK = false
			continue
		}
		for i, w := range s.Bloom {
			out.Bloom[i] |= w
		}
	}
	if out == nil {
		return nil
	}
	if !granularityOK {
		out.BlockTokens = 0
		out.Roots = nil
		bloomsOK = false
	}
	if !bloomsOK {
		out.Bloom, out.BloomK = nil, 0
	}
	sort.Slice(out.Roots, func(i, j int) bool { return out.Roots[i] < out.Roots[j] })
	uniq := out.Roots[:0]
	for i, r := range out.Roots {
		if i == 0 || r != out.Roots[i-1] {
			uniq = append(uniq, r)
		}
	}
	out.Roots = uniq
	return out
}
