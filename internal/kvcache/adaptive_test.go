package kvcache

import "testing"

func adaptiveManager(t *testing.T, blocks, cap int) *Manager {
	t.Helper()
	m, err := NewManager(Config{BlockTokens: 4, TotalBlocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnablePrefixCache(cap); err != nil {
		t.Fatal(err)
	}
	return m
}

// tokensOf builds a deterministic prompt; equal seeds share content.
func tokensOf(n, seed int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = seed*9973 + i
	}
	return out
}

func TestHashPromptMatchesUnhashedWalk(t *testing.T) {
	m := adaptiveManager(t, 64, 0)
	prompt := tokensOf(20, 1)
	if err := m.Allocate(1, 20); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 20); err != nil {
		t.Fatal(err)
	}
	hp := m.HashPrompt(prompt)
	if hp.Len() != 20 || len(hp.keys) != 5 {
		t.Fatalf("HashPrompt: len %d, %d keys; want 20 tokens, 5 keys", hp.Len(), len(hp.keys))
	}
	for i, k := range hp.keys {
		if k != contentKey(prompt[4*i:4*i+4]) {
			t.Fatalf("HashPrompt key %d differs from its block's content key", i)
		}
	}
	// The router hashes without a manager: at the same block size it
	// must walk the trie exactly as the manager's own hash does.
	gm, gr := m.LookupCostHashed(HashPromptTokens(prompt, 4))
	hm, hr := m.LookupCostHashed(hp)
	if gm != hm || gr != hr {
		t.Fatalf("manager-hashed lookup (%d,%d) != HashPromptTokens lookup (%d,%d)", hm, hr, gm, gr)
	}
	if gm == 0 {
		t.Fatal("committed prompt produced no match")
	}
}

// TestGenerationTracksLookupMutations: the generation counter must
// change whenever an operation could alter a lookup's result, so a
// scheduler memoizing LookupCost per (request, generation) never reuses
// a stale match.
func TestGenerationTracksLookupMutations(t *testing.T) {
	m := adaptiveManager(t, 64, 0)
	prompt := tokensOf(16, 1)

	gen := m.Generation()
	if err := m.Allocate(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 16); err != nil {
		t.Fatal(err)
	}
	if m.Generation() == gen {
		t.Fatal("generation unchanged by a trie commit")
	}

	gen = m.Generation()
	if _, err := m.ClaimPrefixHashed(2, m.HashPrompt(prompt)); err != nil {
		t.Fatal(err)
	}
	if m.Generation() == gen {
		t.Fatal("generation unchanged by a prefix claim")
	}

	// Freeing the last reference parks blocks in the cached pool, which
	// changes the resurrect charge of a later lookup.
	gen = m.Generation()
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(2); err != nil {
		t.Fatal(err)
	}
	if m.Generation() == gen {
		t.Fatal("generation unchanged by refcount-zero transitions")
	}

	gen = m.Generation()
	if err := m.SetPrefixCacheCap(1); err != nil {
		t.Fatal(err)
	}
	if m.Generation() == gen {
		t.Fatal("generation unchanged by a cache-cap resize")
	}
}

// TestSetPrefixCacheCapEvictsImmediately: shrinking the bound at
// runtime must evict parked blocks down to the new bound on return.
func TestSetPrefixCacheCapEvictsImmediately(t *testing.T) {
	m := adaptiveManager(t, 64, 0)
	prompt := tokensOf(32, 1) // 8 full blocks
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 32); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedBlocks(); got != 8 {
		t.Fatalf("cached %d blocks, want 8", got)
	}
	if err := m.SetPrefixCacheCap(3); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedBlocks(); got != 3 {
		t.Fatalf("cached %d blocks after cap 3, want 3", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPrefixCacheCap(-1); err == nil {
		t.Fatal("negative cap accepted")
	}
	bare, err := NewManager(Config{BlockTokens: 4, TotalBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.SetPrefixCacheCap(1); err == nil {
		t.Fatal("cap resize accepted without the prefix cache")
	}
}

// TestAdaptiveCacheShrinksUnderPressure: sustained blocked admissions
// must drive the pool target down to the floor, with the cached pool
// following immediately.
func TestAdaptiveCacheShrinksUnderPressure(t *testing.T) {
	m := adaptiveManager(t, 64, 0)
	if err := m.EnableAdaptivePrefixCache(2, 16); err != nil {
		t.Fatal(err)
	}
	if got := m.CachePoolTarget(); got != 16 {
		t.Fatalf("start target %d, want max 16", got)
	}
	// Park 8 blocks.
	prompt := tokensOf(32, 1)
	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 32); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}

	last := m.CachePoolTarget()
	for i := 0; i < 64; i++ {
		last = m.AdaptCacheEpoch(1, 0, true)
	}
	if last != 2 {
		t.Fatalf("target %d after sustained pressure, want floor 2", last)
	}
	if got := m.CachedBlocks(); got > 2 {
		t.Fatalf("cached pool %d blocks above the shrunken target", got)
	}
	if m.CachePressureEWMA() < cachePressureHigh {
		t.Fatalf("pressure EWMA %.3f did not saturate", m.CachePressureEWMA())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveCacheGrowsOnHits: a hit-heavy, pressure-free epoch stream
// must grow the target back toward the ceiling.
func TestAdaptiveCacheGrowsOnHits(t *testing.T) {
	m := adaptiveManager(t, 64, 4)
	if err := m.EnableAdaptivePrefixCache(2, 16); err != nil {
		t.Fatal(err)
	}
	if got := m.CachePoolTarget(); got != 4 {
		t.Fatalf("start target %d, want the configured static bound 4", got)
	}
	last := 0
	for i := 0; i < 64; i++ {
		last = m.AdaptCacheEpoch(2, 2, false)
	}
	if last != 16 {
		t.Fatalf("target %d after sustained hits, want ceiling 16", last)
	}
	if m.CacheHitRateEWMA() < cacheGrowHitRate {
		t.Fatalf("hit-rate EWMA %.3f below the grow threshold", m.CacheHitRateEWMA())
	}
}

func TestAdaptiveCacheValidation(t *testing.T) {
	bare, err := NewManager(Config{BlockTokens: 4, TotalBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.EnableAdaptivePrefixCache(0, 0); err == nil {
		t.Fatal("adaptive sizing accepted without the prefix cache")
	}
	m := adaptiveManager(t, 64, 0)
	if err := m.EnableAdaptivePrefixCache(8, 4); err == nil {
		t.Fatal("max below min accepted")
	}
	if err := m.EnableAdaptivePrefixCache(-1, 0); err == nil {
		t.Fatal("negative min accepted")
	}
	// Epochs on a non-adaptive manager are a no-op.
	m2 := adaptiveManager(t, 64, 7)
	if got := m2.AdaptCacheEpoch(1, 1, true); got != 7 {
		t.Fatalf("non-adaptive epoch returned %d, want the static bound 7", got)
	}
}
