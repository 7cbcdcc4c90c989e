package kvcache

import (
	"strings"
	"testing"
)

func newCompressedManager(t *testing.T, totalBlocks, capBlocks int) *Manager {
	t.Helper()
	m := newPrefixManager(t, totalBlocks, capBlocks)
	if err := m.EnableCompressedCache(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompressedCacheValidation(t *testing.T) {
	m, err := NewManager(Config{BlockTokens: 16, TotalBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableCompressedCache(); err == nil || !strings.Contains(err.Error(), "prefix") {
		t.Fatalf("enable without prefix cache = %v, want prefix-cache error", err)
	}
	if m.CompressedCacheEnabled() {
		t.Fatal("failed enable left the compressed cache on")
	}
	m2 := newCompressedManager(t, 8, 0)
	if err := m2.EnableCompressedCache(); err == nil {
		t.Fatal("double enable accepted")
	}
	// Off-state accessors report the disabled convention.
	if m.CompressedBlocks() != 0 || m.CompressedKVBytes() != 0 || m.CompressionRatio() != 0 {
		t.Fatal("disabled compressed cache reports non-zero state")
	}
}

// TestFreezeOnReleaseThawOnClaim walks a block through the full cold
// lifecycle: owned → frozen on the refcount-zero release (physical
// block freed, content in the compressed store, trie still
// advertising) → thawed back into a fresh physical block by the next
// identical claim, bit for bit.
func TestFreezeOnReleaseThawOnClaim(t *testing.T) {
	m := newCompressedManager(t, 32, 0)
	prompt := toks(40, 1)

	if err := m.Allocate(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 40); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
	if got := m.CompressedBlocks(); got != 0 {
		t.Fatalf("CompressedBlocks while owned = %d, want 0", got)
	}

	// The refcount-zero release freezes the two advertised full blocks
	// instead of parking them: no physical blocks stay behind.
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	if got := m.CompressedBlocks(); got != 2 {
		t.Fatalf("CompressedBlocks after release = %d, want 2", got)
	}
	if got := m.CachedBlocks(); got != 0 {
		t.Fatalf("CachedBlocks = %d, want 0 (frozen, not parked)", got)
	}
	if got := m.FreeBlocks(); got != 32 {
		t.Fatalf("FreeBlocks = %d, want all 32 (frozen blocks hold no physical block)", got)
	}
	if r := m.CompressionRatio(); r <= 1.0 {
		t.Fatalf("CompressionRatio = %v, want > 1.0 on synthesized content", r)
	}
	if m.CompressedKVBytes() <= 0 {
		t.Fatal("CompressedKVBytes not positive with frozen blocks")
	}
	mustInvariants(t, m) // includes the bit-exact re-synthesis check

	// Still advertised: lookups match, and the matched frozen blocks
	// are charged as resurrections (a claim must pop fresh blocks).
	if got := lookup(m, prompt); got != 32 {
		t.Fatalf("Lookup(frozen prefix) = %d, want 32", got)
	}
	matched, resurrect := m.LookupCostHashed(m.HashPrompt(prompt))
	if matched != 32 || resurrect != 2 {
		t.Fatalf("LookupCost = (%d, %d), want (32, 2)", matched, resurrect)
	}

	// The claim thaws both blocks: content restored into fresh physical
	// blocks, decompress counters advanced, store drained.
	hits := m.PrefixHits()
	got, err := m.ClaimPrefixHashed(2, m.HashPrompt(prompt))
	if err != nil || got != 32 {
		t.Fatalf("ClaimPrefix over frozen blocks = %d, %v; want 32", got, err)
	}
	if m.PrefixHits() != hits+1 {
		t.Fatalf("PrefixHits = %d, want %d", m.PrefixHits(), hits+1)
	}
	// Each thaw counts one decompress claim without decoding its block.
	if got := m.DecompressClaims(); got != 2 {
		t.Fatalf("DecompressClaims = %d, want 2", got)
	}
	if got := m.CompressedBlocks(); got != 0 {
		t.Fatalf("CompressedBlocks after thaw = %d, want 0", got)
	}
	if got := m.FreeBlocks(); got != 30 {
		t.Fatalf("FreeBlocks after thaw = %d, want 30", got)
	}
	mustInvariants(t, m)

	// Release refreezes; a second cycle reuses the same path.
	if err := m.Free(2); err != nil {
		t.Fatal(err)
	}
	if got := m.CompressedBlocks(); got != 2 {
		t.Fatalf("CompressedBlocks after refreeze = %d, want 2", got)
	}
	mustInvariants(t, m)
}

// TestFrozenSurvivesFullOccupancy is the capacity win at the allocator
// level: frozen content costs no physical blocks, so a workload that
// fills the entire plan cannot evict it — where the plain prefix cache
// would have surrendered its parked blocks to the same pressure.
func TestFrozenSurvivesFullOccupancy(t *testing.T) {
	m := newCompressedManager(t, 4, 0)
	prompt := toks(40, 1) // 2 full cacheable blocks + a partial tail
	if err := m.Allocate(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 40); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	if got := m.CompressedBlocks(); got != 2 {
		t.Fatalf("CompressedBlocks = %d, want 2", got)
	}

	// Fill the whole 4-block plan with an unrelated sequence.
	if err := m.Allocate(2, 64); err != nil {
		t.Fatalf("full-plan allocation failed with frozen blocks present: %v", err)
	}
	if got := m.FreeBlocks(); got != 0 {
		t.Fatalf("FreeBlocks = %d, want 0", got)
	}
	if got := m.CompressedBlocks(); got != 2 {
		t.Fatalf("full occupancy evicted frozen blocks: %d left, want 2", got)
	}
	mustInvariants(t, m)

	// Drain and reclaim: the frozen prefix is still there to thaw.
	if err := m.Free(2); err != nil {
		t.Fatal(err)
	}
	got, err := m.ClaimPrefixHashed(3, m.HashPrompt(prompt))
	if err != nil || got != 32 {
		t.Fatalf("ClaimPrefix after occupancy episode = %d, %v; want 32", got, err)
	}
	if got := m.DecompressClaims(); got != 2 {
		t.Fatalf("DecompressClaims = %d, want 2", got)
	}
	mustInvariants(t, m)
}

// TestFrozenCountsAgainstPoolCap: the pool bound caps advertised cold
// content wherever it lives — parked or frozen — so a tight cap evicts
// frozen leaves (compressed store shrinks with the trie).
func TestFrozenCountsAgainstPoolCap(t *testing.T) {
	m := newCompressedManager(t, 8, 1)
	prompt := toks(32, 1)
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 32); err != nil {
		t.Fatal(err)
	}
	evictions := m.prefix.evictions
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	// Two blocks froze, cap is 1: the leaf-first eviction must have
	// dropped one frozen block (the deeper one) from trie and store.
	if got := m.CompressedBlocks(); got != 1 {
		t.Fatalf("CompressedBlocks under cap 1 = %d, want 1", got)
	}
	if m.prefix.evictions != evictions+1 {
		t.Fatalf("PrefixEvictions = %d, want %d", m.prefix.evictions, evictions+1)
	}
	// The surviving root block still matches a 16-token claim.
	if got := lookup(m, prompt[:20]); got != 16 {
		t.Fatalf("Lookup after cap eviction = %d, want 16", got)
	}
	mustInvariants(t, m)

	// Dropping the cap to 1-below evicts the rest.
	if err := m.SetPrefixCacheCap(1); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
}

// TestAdaptiveCacheHoldsUnderPressureWhenCompressed: with the
// compressed cache on, capacity pressure must not shrink the pool
// target — frozen blocks hold no physical capacity, so eviction would
// destroy reusable content and relieve nothing.
func TestAdaptiveCacheHoldsUnderPressureWhenCompressed(t *testing.T) {
	plain := newPrefixManager(t, 16, 0)
	comp := newCompressedManager(t, 16, 0)
	for _, m := range []*Manager{plain, comp} {
		if err := m.EnableAdaptivePrefixCache(1, 8); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		plain.AdaptCacheEpoch(1, 0, true)
		comp.AdaptCacheEpoch(1, 0, true)
	}
	if got := plain.PrefixCacheCap(); got >= 8 {
		t.Fatalf("plain pool cap = %d, want shrunk below 8 under pressure", got)
	}
	if got := comp.PrefixCacheCap(); got != 8 {
		t.Fatalf("compressed pool cap = %d, want held at 8 under pressure", got)
	}
	// The growth path stays live in both.
	for i := 0; i < 50; i++ {
		comp.AdaptCacheEpoch(4, 4, false)
	}
	if got := comp.PrefixCacheCap(); got != 8 {
		t.Fatalf("compressed pool cap after hits = %d, want ceiling 8", got)
	}
}

// chainNodes returns the trie nodes spelling prompt's full blocks, root
// first, stopping at the first unadvertised block.
func chainNodes(m *Manager, prompt []int) []*prefixNode {
	var out []*prefixNode
	n := m.prefix.root
	for _, key := range m.HashPrompt(prompt).keys {
		if n = n.children[key]; n == nil {
			break
		}
		out = append(out, n)
	}
	return out
}

// TestFreezeRecordsSizesWithoutEncoding: a freeze records a node's
// sizes and encodes nothing — a frozen node that was never thawed holds
// no payload — and the recorded sizes are exactly the ones encoding its
// content gives, at every block size. CheckInvariants recomputes them,
// so a recorded size one byte off fails it even where the frozen sums
// agree with it; the first thaw then encodes a payload of those sizes.
func TestFreezeRecordsSizesWithoutEncoding(t *testing.T) {
	for _, bt := range []int{1, 16, 64} {
		m, err := NewManager(Config{BlockTokens: bt, TotalBlocks: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.EnablePrefixCache(0); err != nil {
			t.Fatal(err)
		}
		if err := m.EnableCompressedCache(); err != nil {
			t.Fatal(err)
		}
		prompt := toks(4*bt, bt)
		if err := m.Allocate(1, len(prompt)); err != nil {
			t.Fatal(err)
		}
		if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), len(prompt)); err != nil {
			t.Fatal(err)
		}
		if err := m.Free(1); err != nil {
			t.Fatal(err)
		}
		nodes := chainNodes(m, prompt)
		if len(nodes) != 4 {
			t.Fatalf("bt=%d: trie advertises %d blocks of the prompt, want 4", bt, len(nodes))
		}
		var orig, comp int64
		for i, n := range nodes {
			if n.block >= 0 || n.payload != nil {
				t.Fatalf("bt=%d node %d: block %d, payload %p; want frozen without a payload", bt, i, n.block, n.payload)
			}
			sb, err := encode(blockContent(n.key, bt))
			if err != nil {
				t.Fatal(err)
			}
			if n.size != sb.size() {
				t.Fatalf("bt=%d node %d records %+v, encoding gives %+v", bt, i, n.size, sb.size())
			}
			orig += sb.origSize
			comp += sb.compSize()
		}
		if m.frozenOrig != orig || m.CompressedKVBytes() != comp {
			t.Fatalf("bt=%d: frozen sums %d/%d, encoded payloads %d/%d", bt, m.frozenOrig, m.CompressedKVBytes(), orig, comp)
		}
		mustInvariants(t, m)

		n := nodes[len(nodes)-1]
		n.size.comp++
		if err := m.CheckInvariants(); err == nil {
			t.Fatalf("bt=%d: CheckInvariants accepted a recorded size the frozen sums disagree with", bt)
		}
		m.frozenComp++
		if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "encodes to") {
			t.Fatalf("bt=%d: CheckInvariants with a recorded size one byte off = %v, want a size mismatch", bt, err)
		}
		n.size.comp--
		m.frozenComp--
		mustInvariants(t, m)

		// One token past the cached blocks, so the claim takes them whole.
		if got, err := m.ClaimPrefixHashed(2, m.HashPrompt(toks(len(prompt)+1, bt))); err != nil || got != len(prompt) {
			t.Fatalf("bt=%d: ClaimPrefix = %d, %v; want %d", bt, got, err, len(prompt))
		}
		for i, n := range nodes {
			if n.block < 0 || n.payload == nil || n.payload.size() != n.size {
				t.Fatalf("bt=%d node %d after the thaw: block %d, payload %p; want thawed with a payload of %+v",
					bt, i, n.block, n.payload, n.size)
			}
		}
		mustInvariants(t, m)
	}
}

// TestRefreezeReattachesThawedPayload walks content through freeze →
// thaw → freeze → thaw and checks it is compressed only once: the first
// freeze records sizes only, the first thaw encodes the payload onto
// the trie node, the next freeze keeps it there, and the next thaw
// reattaches that same payload (pointer-identical, so no re-encode),
// with the accounting a store of fresh Puts would report. A codec fault
// during a re-freeze still parks the block and counts a fallback, and
// evicting the parked node drops its payload.
func TestRefreezeReattachesThawedPayload(t *testing.T) {
	m := newCompressedManager(t, 8, 0)
	prompt := toks(40, 1) // 2 full cacheable blocks + a partial tail
	if err := m.Allocate(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 40); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
	nodes := chainNodes(m, prompt)
	if len(nodes) != 2 {
		t.Fatalf("trie advertises %d blocks of the prompt, want 2", len(nodes))
	}
	for i, n := range nodes {
		if n.payload != nil || n.block >= 0 {
			t.Fatalf("node %d after the first freeze: block %d, payload %p; want frozen without a payload", i, n.block, n.payload)
		}
	}

	// The first claim thaws the chain and encodes each node's payload.
	if got, err := m.ClaimPrefixHashed(2, m.HashPrompt(prompt)); err != nil || got != 32 {
		t.Fatalf("ClaimPrefix(2) = %d, %v; want 32", got, err)
	}
	encoded := make([]*storedBlock, len(nodes))
	for i, n := range nodes {
		if encoded[i] = n.payload; encoded[i] == nil || n.block < 0 {
			t.Fatalf("node %d after the first thaw: block %d, payload %p; want thawed with a payload", i, n.block, n.payload)
		}
	}
	if err := m.Free(2); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)

	// claimAndFree thaws the chain into sequence id, grows it past the
	// prompt, and releases it again.
	claimAndFree := func(id int) {
		t.Helper()
		if got, err := m.ClaimPrefixHashed(id, m.HashPrompt(prompt)); err != nil || got != 32 {
			t.Fatalf("ClaimPrefix(%d) = %d, %v; want 32", id, got, err)
		}
		for i, n := range nodes {
			if n.payload != encoded[i] || n.block < 0 {
				t.Fatalf("thawed node %d holds payload %p (block %d), want its first thaw's payload %p",
					i, n.payload, n.block, encoded[i])
			}
		}
		if m.CompressedBlocks() != 0 || m.CompressedKVBytes() != 0 {
			t.Fatalf("frozen sums still charge %d blocks / %d bytes after the thaw",
				m.CompressedBlocks(), m.CompressedKVBytes())
		}
		mustInvariants(t, m) // decodes every retained payload
		if err := m.Extend(id, 8); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, m)
		if err := m.Free(id); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, m)
	}

	claimAndFree(3)
	fresh := NewCompressedStore()
	for i, n := range nodes {
		if n.payload != encoded[i] || n.block >= 0 {
			t.Fatalf("re-frozen node %d holds %p (block %d), want the thawed payload %p frozen",
				i, n.payload, n.block, encoded[i])
		}
		if err := fresh.Put(i+1, blockContent(n.key, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if m.CompressedKVBytes() != fresh.compBytes ||
		m.frozenOrig != fresh.origBytes || m.CompressionRatio() != fresh.Ratio() {
		t.Fatalf("re-frozen sums comp=%d orig=%d ratio=%v, fresh Puts give comp=%d orig=%d ratio=%v",
			m.CompressedKVBytes(), m.frozenOrig, m.CompressionRatio(),
			fresh.compBytes, fresh.origBytes, fresh.Ratio())
	}

	// A codec fault during the re-freeze degrades to physical parking;
	// the parked nodes keep their payloads.
	m.SetCodecFault(func() bool { return true })
	fallbacks := m.CodecFallbacks()
	claimAndFree(4)
	if got := m.CodecFallbacks(); got != fallbacks+2 {
		t.Fatalf("CodecFallbacks = %d, want %d", got, fallbacks+2)
	}
	if m.CachedBlocks() != 2 || m.CompressedBlocks() != 0 {
		t.Fatalf("faulted re-freeze: %d parked, %d frozen; want 2 parked, 0 frozen",
			m.CachedBlocks(), m.CompressedBlocks())
	}
	for i, n := range nodes {
		if n.block < 0 || n.payload != encoded[i] {
			t.Fatalf("parked node %d: block %d, payload %p; want a physical block and %p",
				i, n.block, n.payload, encoded[i])
		}
	}

	// Allocation pressure evicts both parked nodes, and their payloads
	// go with them.
	m.SetCodecFault(nil)
	if err := m.Allocate(5, 8*16); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		if n.payload != nil {
			t.Fatalf("evicted node %d still retains its payload", i)
		}
	}
	if got := lookup(m, prompt); got != 0 {
		t.Fatalf("Lookup after eviction = %d, want 0", got)
	}
	mustInvariants(t, m)
}

// TestInvariantsCheckRetainedPayloads: CheckInvariants fails when a
// node's payload no longer decodes to its key's content, whether the
// node is thawed (the payload kept for its next freeze) or frozen (the
// payload is its only copy of the content).
func TestInvariantsCheckRetainedPayloads(t *testing.T) {
	m := newCompressedManager(t, 8, 0)
	a, b := toks(32, 1), toks(32, 2)
	for id, prompt := range map[int][]int{1: a, 2: b} {
		if err := m.Allocate(id, 32); err != nil {
			t.Fatal(err)
		}
		if err := m.CommitPrefixHashed(id, m.HashPrompt(prompt), 32); err != nil {
			t.Fatal(err)
		}
		if err := m.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	// Thaw both chains so their nodes hold payloads, then refreeze b's.
	if _, err := m.ClaimPrefixHashed(3, m.HashPrompt(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ClaimPrefixHashed(4, m.HashPrompt(b)); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(4); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
	thawed, frozen := chainNodes(m, a)[0], chainNodes(m, b)[0]
	if thawed.block < 0 || frozen.block >= 0 || thawed.payload == nil || frozen.payload == nil {
		t.Fatalf("setup: blocks %d and %d, payloads %p and %p; want one thawed and one frozen node, both holding payloads",
			thawed.block, frozen.block, thawed.payload, frozen.payload)
	}
	own, other := thawed.payload, frozen.payload
	mismatch := func(what string) {
		t.Helper()
		if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "differs from its key's") {
			t.Fatalf("CheckInvariants with %s node holding another key's payload = %v, want a content mismatch", what, err)
		}
	}

	thawed.payload = other
	mismatch("a thawed")
	thawed.payload = own

	frozen.payload = own
	mismatch("a frozen")
	frozen.payload = other
	mustInvariants(t, m)
}

// TestThawRejectsCorruptPayload: a claim thaws without decoding, yet it
// still rejects a structurally corrupt payload — one a node kept from
// its first thaw — with the error decoding would have raised, and rolls
// the whole claim back: the shallower block it had already thawed
// refreezes, and no sequence, hit or physical block leaks.
func TestThawRejectsCorruptPayload(t *testing.T) {
	m := newCompressedManager(t, 32, 0)
	prompt := toks(32, 1)
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 32); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	// The first claim encodes the payloads; its release refreezes them.
	if _, err := m.ClaimPrefixHashed(2, m.HashPrompt(prompt)); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(2); err != nil {
		t.Fatal(err)
	}
	nodes := chainNodes(m, prompt)
	if len(nodes) != 2 || nodes[1].payload == nil {
		t.Fatalf("trie advertises %d blocks of the prompt, want 2 holding payloads", len(nodes))
	}
	cm := nodes[1].payload.cm
	high := cm.High
	cm.High = high[:len(high)-1]

	hits := m.PrefixHits()
	got, err := m.ClaimPrefixHashed(3, m.HashPrompt(prompt))
	const want = "core: final offsets 4060/36 do not match buffer lengths 4059/36"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ClaimPrefix over a corrupt payload = %d, %v; want an error containing %q", got, err, want)
	}
	if got := m.FreeBlocks(); got != 32 {
		t.Fatalf("FreeBlocks after the failed claim = %d, want 32", got)
	}
	if got := m.PrefixHits(); got != hits {
		t.Fatalf("PrefixHits after the failed claim = %d, want %d", got, hits)
	}
	if len(m.seqs) != 0 {
		t.Fatalf("failed claim left %d sequences allocated", len(m.seqs))
	}
	if got := m.CompressedBlocks(); got != 2 {
		t.Fatalf("CompressedBlocks after the failed claim = %d, want both blocks frozen again", got)
	}
	cm.High = high
	mustInvariants(t, m)
}

var sizeSink blockSize

// BenchmarkBlockSizes is the fused pass a node's first freeze runs: a
// 16-token block's sizes from its key alone, with no tensor built and
// nothing encoded.
func BenchmarkBlockSizes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sz, err := blockSizes("bench/kv-block", DefaultBlockTokens)
		if err != nil {
			b.Fatal(err)
		}
		sizeSink = sz
	}
}

var summarySink *PrefixSummary

// BenchmarkCompressedPoolChurn is the kvcache layer's freeze, thaw and
// claim benchmark. A compressed manager's 1024-block pool is full of
// eight tenants' frozen 32-block prompt prefixes and older unique
// tails. One op claims a tenant prefix (32 thaws), prefills and
// commits 4 unique blocks behind it, frees the sequence (36 freezes,
// then 4 cap evictions of the oldest tails) and rebuilds the trie
// digest, as a replica publishing stats after every admission does.
func BenchmarkCompressedPoolChurn(b *testing.B) {
	const (
		tenants      = 8
		prefixBlocks = 32
		tailBlocks   = 4
		poolCap      = 1024
		bt           = DefaultBlockTokens
	)
	m, err := NewManager(Config{BlockTokens: bt, TotalBlocks: 2 * (prefixBlocks + tailBlocks)})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.EnablePrefixCache(poolCap); err != nil {
		b.Fatal(err)
	}
	if err := m.EnableCompressedCache(); err != nil {
		b.Fatal(err)
	}
	prefixes := make([]HashedPrompt, tenants)
	for i := range prefixes {
		prefixes[i] = m.HashPrompt(toks(prefixBlocks*bt, i+1))
	}
	seq := 0
	churn := func() int {
		seq++
		p, tail := prefixes[seq%tenants], m.HashPrompt(toks(tailBlocks*bt, 1000+seq))
		hp := HashedPrompt{
			tokens: append(p.tokens[:len(p.tokens):len(p.tokens)], tail.tokens...),
			keys:   append(p.keys[:len(p.keys):len(p.keys)], tail.keys...),
		}
		matched, err := m.ClaimPrefixHashed(seq, hp)
		if err == nil {
			if matched == 0 {
				err = m.Allocate(seq, hp.Len())
			} else {
				err = m.Extend(seq, hp.Len()-matched)
			}
		}
		if err == nil {
			err = m.CommitPrefixHashed(seq, hp, hp.Len())
		}
		if err == nil {
			err = m.Free(seq)
		}
		if err != nil {
			b.Fatal(err)
		}
		summarySink = m.PrefixSummary()
		return matched
	}
	for m.CompressedBlocks() < poolCap {
		churn()
	}
	thaws := m.DecompressClaims()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if churn() != prefixBlocks*bt {
			b.Fatal("claim missed the frozen tenant prefix")
		}
	}
	b.StopTimer()
	if got := m.DecompressClaims() - thaws; got != int64(prefixBlocks*b.N) {
		b.Fatalf("%d thaws over %d ops, want %d per op", got, b.N, prefixBlocks)
	}
	if got := m.CompressedBlocks(); got != poolCap {
		b.Fatalf("pool holds %d frozen blocks, want a full %d", got, poolCap)
	}
}
