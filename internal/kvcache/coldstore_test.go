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
	if err := m.CommitPrefix(1, prompt, 40); err != nil {
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
	if got := m.Lookup(prompt); got != 32 {
		t.Fatalf("Lookup(frozen prefix) = %d, want 32", got)
	}
	matched, resurrect := m.LookupCost(prompt)
	if matched != 32 || resurrect != 2 {
		t.Fatalf("LookupCost = (%d, %d), want (32, 2)", matched, resurrect)
	}

	// The claim thaws both blocks: content restored into fresh physical
	// blocks, decompress counters advanced, store drained.
	hits := m.PrefixHits()
	got, err := m.ClaimPrefix(2, prompt)
	if err != nil || got != 32 {
		t.Fatalf("ClaimPrefix over frozen blocks = %d, %v; want 32", got, err)
	}
	if m.PrefixHits() != hits+1 {
		t.Fatalf("PrefixHits = %d, want %d", m.PrefixHits(), hits+1)
	}
	if got := m.DecompressClaims(); got != 2 {
		t.Fatalf("DecompressClaims = %d, want 2", got)
	}
	if got := m.DecompressedBytes(); got <= 0 {
		t.Fatal("DecompressedBytes not positive after thaw")
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
	if err := m.CommitPrefix(1, prompt, 40); err != nil {
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
	got, err := m.ClaimPrefix(3, prompt)
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
	if err := m.CommitPrefix(1, prompt, 32); err != nil {
		t.Fatal(err)
	}
	evictions := m.PrefixEvictions()
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	// Two blocks froze, cap is 1: the leaf-first eviction must have
	// dropped one frozen block (the deeper one) from trie and store.
	if got := m.CompressedBlocks(); got != 1 {
		t.Fatalf("CompressedBlocks under cap 1 = %d, want 1", got)
	}
	if m.PrefixEvictions() != evictions+1 {
		t.Fatalf("PrefixEvictions = %d, want %d", m.PrefixEvictions(), evictions+1)
	}
	// The surviving root block still matches a 16-token claim.
	if got := m.Lookup(prompt[:20]); got != 16 {
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

// TestRefreezeReattachesThawedPayload walks content through freeze →
// thaw → freeze and checks it is compressed only once: the thaw moves
// the store's payload onto the trie node, and the next freeze stores
// that same payload (pointer-identical, so no re-encode) with the
// accounting a store of fresh Puts would report. A codec fault during
// the re-freeze still parks the block and counts a fallback, and
// evicting the parked node drops its payload.
func TestRefreezeReattachesThawedPayload(t *testing.T) {
	m := newCompressedManager(t, 8, 0)
	prompt := toks(40, 1) // 2 full cacheable blocks + a partial tail
	if err := m.Allocate(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefix(1, prompt, 40); err != nil {
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
	encoded := make([]*storedBlock, len(nodes))
	for i, n := range nodes {
		if encoded[i] = m.compStore.blocks[n.frozenID]; encoded[i] == nil {
			t.Fatalf("node %d frozen under id %d but not in the store", i, n.frozenID)
		}
	}

	// claimAndFree thaws the chain into sequence id, grows it past the
	// prompt, and releases it again.
	claimAndFree := func(id int) {
		t.Helper()
		if got, err := m.ClaimPrefix(id, prompt); err != nil || got != 32 {
			t.Fatalf("ClaimPrefix(%d) = %d, %v; want 32", id, got, err)
		}
		for i, n := range nodes {
			if n.payload != encoded[i] || n.frozenID != 0 {
				t.Fatalf("thawed node %d holds payload %p (frozen id %d), want the store's %p",
					i, n.payload, n.frozenID, encoded[i])
			}
		}
		if m.CompressedBlocks() != 0 || m.CompressedKVBytes() != 0 {
			t.Fatalf("store still charges %d blocks / %d bytes after the thaw",
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

	claimAndFree(2)
	fresh := NewCompressedStore()
	for i, n := range nodes {
		if got := m.compStore.blocks[n.frozenID]; got != encoded[i] || n.payload != nil {
			t.Fatalf("re-frozen node %d stores %p (retains %p), want the thawed payload %p",
				i, got, n.payload, encoded[i])
		}
		if err := fresh.Put(i+1, blockContent(n.key, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if m.compStore.CompressedBytes() != fresh.CompressedBytes() ||
		m.compStore.OrigBytes() != fresh.OrigBytes() || m.compStore.Ratio() != fresh.Ratio() {
		t.Fatalf("re-frozen store comp=%d orig=%d ratio=%v, fresh Puts give comp=%d orig=%d ratio=%v",
			m.compStore.CompressedBytes(), m.compStore.OrigBytes(), m.compStore.Ratio(),
			fresh.CompressedBytes(), fresh.OrigBytes(), fresh.Ratio())
	}

	// A codec fault during the re-freeze degrades to physical parking;
	// the parked nodes keep their payloads.
	m.SetCodecFault(func() bool { return true })
	fallbacks := m.CodecFallbacks()
	claimAndFree(3)
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
	if err := m.Allocate(4, 8*16); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		if n.payload != nil {
			t.Fatalf("evicted node %d still retains its payload", i)
		}
	}
	if got := m.Lookup(prompt); got != 0 {
		t.Fatalf("Lookup after eviction = %d, want 0", got)
	}
	mustInvariants(t, m)
}

// TestInvariantsCheckRetainedPayloads: CheckInvariants fails when a
// thawed node's retained payload no longer decodes to its key's
// content, and when a frozen node holds a payload besides its stored
// one.
func TestInvariantsCheckRetainedPayloads(t *testing.T) {
	m := newCompressedManager(t, 8, 0)
	a, b := toks(32, 1), toks(32, 2)
	for id, prompt := range map[int][]int{1: a, 2: b} {
		if err := m.Allocate(id, 32); err != nil {
			t.Fatal(err)
		}
		if err := m.CommitPrefix(id, prompt, 32); err != nil {
			t.Fatal(err)
		}
		if err := m.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.ClaimPrefix(3, a); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
	thawed, frozen := chainNodes(m, a)[0], chainNodes(m, b)[0]

	// A thawed node retaining another key's payload.
	own := thawed.payload
	thawed.payload = m.compStore.blocks[frozen.frozenID]
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a retained payload of different content")
	}
	thawed.payload = own

	// A frozen node that also retains a payload.
	frozen.payload = own
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a frozen node holding a retained payload")
	}
	frozen.payload = nil
	mustInvariants(t, m)
}
