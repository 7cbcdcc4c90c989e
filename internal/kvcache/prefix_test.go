package kvcache

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// lookup returns how many leading prompt tokens the trie serves, through
// the hashed lookup that admission runs.
func lookup(m *Manager, prompt []int) int {
	matched, _ := m.LookupCostHashed(m.HashPrompt(prompt))
	return matched
}

// toks builds a deterministic token sequence; equal seeds share every
// position, so prefixes built from one seed are content-identical.
func toks(n, seed int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = seed*100003 + i*131 + 7
	}
	return out
}

func newPrefixManager(t *testing.T, totalBlocks, capBlocks int) *Manager {
	t.Helper()
	m, err := NewManager(Config{BlockTokens: 16, TotalBlocks: totalBlocks})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnablePrefixCache(capBlocks); err != nil {
		t.Fatal(err)
	}
	return m
}

func mustInvariants(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixLookupClaimAndResurrect(t *testing.T) {
	m := newPrefixManager(t, 32, 0)
	prompt := toks(40, 1)

	// Prefill seq 1 the long way, then advertise its full blocks.
	if err := m.Allocate(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 40); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)

	if got := lookup(m, prompt); got != 32 {
		t.Fatalf("Lookup(full prompt) = %d, want 32 (two full blocks)", got)
	}
	if got := lookup(m, prompt[:20]); got != 16 {
		t.Fatalf("Lookup(20 tokens) = %d, want 16", got)
	}
	// A fully cached block-aligned prompt is capped one token short so
	// the sequence still computes the position sampling its first
	// output token.
	if got := lookup(m, prompt[:32]); got != 31 {
		t.Fatalf("Lookup(fully cached aligned prompt) = %d, want 31 (capped)", got)
	}
	if got := lookup(m, toks(40, 99)); got != 0 {
		t.Fatalf("Lookup(unrelated prompt) = %d, want 0", got)
	}

	// Seq 2 shares the two full prefix blocks by reference.
	matched, err := m.ClaimPrefixHashed(2, m.HashPrompt(prompt))
	if err != nil || matched != 32 {
		t.Fatalf("ClaimPrefix = %d, %v; want 32", matched, err)
	}
	t1 := blockTable(t, m, 1)
	t2 := blockTable(t, m, 2)
	if t1[0] != t2[0] || t1[1] != t2[1] {
		t.Fatalf("claimed table %v does not share blocks with %v", t2, t1)
	}
	if got := m.SharedBlocks(); got != 2 {
		t.Fatalf("SharedBlocks = %d, want 2", got)
	}
	mustInvariants(t, m)

	// Seq 2 grows past the shared prefix into private blocks.
	if err := m.Extend(2, 8); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)

	// Releasing the original leaves the shared blocks with seq 2.
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	if got := m.SharedBlocks(); got != 0 {
		t.Fatalf("SharedBlocks after Free(1) = %d, want 0", got)
	}
	mustInvariants(t, m)

	// Releasing the last reference parks the registered blocks in the
	// cached pool: they still count as free capacity, and an identical
	// prompt resurrects them.
	if err := m.Free(2); err != nil {
		t.Fatal(err)
	}
	if got := m.FreeBlocks(); got != 32 {
		t.Fatalf("FreeBlocks after drain = %d, want 32", got)
	}
	if got := m.CachedBlocks(); got != 2 {
		t.Fatalf("CachedBlocks after drain = %d, want 2", got)
	}
	mustInvariants(t, m)

	hits := m.PrefixHits()
	if matched, err = m.ClaimPrefixHashed(3, m.HashPrompt(prompt)); err != nil || matched != 32 {
		t.Fatalf("resurrecting ClaimPrefix = %d, %v; want 32", matched, err)
	}
	if m.PrefixHits() != hits+1 {
		t.Fatalf("PrefixHits = %d, want %d", m.PrefixHits(), hits+1)
	}
	if got := m.CachedBlocks(); got != 0 {
		t.Fatalf("CachedBlocks after resurrection = %d, want 0", got)
	}
	if got := m.PrefixTokensSaved(); got != 64 {
		t.Fatalf("PrefixTokensSaved = %d, want 64", got)
	}
	mustInvariants(t, m)
}

// TestFullyCachedPromptClaimsOnlyNeededBlocks: a fully cached prompt
// is capped one token short, and the claim (and LookupCost's
// resurrection charge) must cover only the blocks those tokens fill. At
// one token per block the capped tail block holds nothing but the
// recomputed final token, so it must not be claimed; from two tokens
// per block on, the cap leaves every block claimed.
func TestFullyCachedPromptClaimsOnlyNeededBlocks(t *testing.T) {
	for _, bt := range []int{1, 2, 16} {
		m, err := NewManager(Config{BlockTokens: bt, TotalBlocks: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.EnablePrefixCache(0); err != nil {
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
		want := BlocksFor(len(prompt)-1, bt)
		if matched, resurrect := m.LookupCostHashed(m.HashPrompt(prompt)); matched != len(prompt)-1 || resurrect != want {
			t.Fatalf("bt=%d: LookupCost = %d tokens, %d resurrections; want %d, %d",
				bt, matched, resurrect, len(prompt)-1, want)
		}
		if matched, err := m.ClaimPrefixHashed(2, m.HashPrompt(prompt)); err != nil || matched != len(prompt)-1 {
			t.Fatalf("bt=%d: ClaimPrefix = %d, %v; want %d", bt, matched, err, len(prompt)-1)
		}
		if table := blockTable(t, m, 2); len(table) != want {
			t.Fatalf("bt=%d: claim holds %d blocks for %d tokens, want %d", bt, len(table), len(prompt)-1, want)
		}
		mustInvariants(t, m)
		if err := m.Extend(2, 1); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, m)
		if err := m.Free(2); err != nil {
			t.Fatal(err)
		}
		mustInvariants(t, m)
	}
}

// TestPrefixCopyOnWrite covers the partially consumed shared tail: a
// fully cached block-aligned prompt claims every block but recomputes
// its final token, so the first Extend writes into a shared block and
// must copy it, never mutate it.
func TestPrefixCopyOnWrite(t *testing.T) {
	m := newPrefixManager(t, 16, 0)
	prompt := toks(32, 2)

	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 32); err != nil {
		t.Fatal(err)
	}
	t1 := blockTable(t, m, 1)

	matched, err := m.ClaimPrefixHashed(2, m.HashPrompt(prompt))
	if err != nil || matched != 31 {
		t.Fatalf("ClaimPrefix = %d, %v; want 31 (capped)", matched, err)
	}
	if liveSeq(t, m, 2).tokens != 31 {
		t.Fatalf("Tokens(2) = %d, want 31", liveSeq(t, m, 2).tokens)
	}

	// Recomputing token 31 writes into the shared tail block.
	if err := m.Extend(2, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.prefix.cowCopies; got != 1 {
		t.Fatalf("CowCopies = %d, want 1", got)
	}
	t2 := blockTable(t, m, 2)
	if t2[0] != t1[0] {
		t.Fatalf("full interior block not shared: %v vs %v", t2, t1)
	}
	if t2[1] == t1[1] {
		t.Fatalf("shared tail block %d mutated in place instead of copied", t1[1])
	}
	mustInvariants(t, m)

	// The advertised content is untouched: a third request still
	// matches and claims the ORIGINAL blocks.
	matched, err = m.ClaimPrefixHashed(3, m.HashPrompt(prompt))
	if err != nil || matched != 31 {
		t.Fatalf("post-COW ClaimPrefix = %d, %v; want 31", matched, err)
	}
	t3 := blockTable(t, m, 3)
	if t3[0] != t1[0] || t3[1] != t1[1] {
		t.Fatalf("post-COW claim %v, want the original blocks %v", t3, t1)
	}
	mustInvariants(t, m)
}

// TestPrefixCowWhenSoleOwnerButAdvertised: refcount 1 is not licence
// to write — a block resurrected from the cached pool is still the
// trie's advertised content and must be copied before a write.
func TestPrefixCowWhenSoleOwnerButAdvertised(t *testing.T) {
	m := newPrefixManager(t, 16, 0)
	prompt := toks(32, 3)

	if err := m.Allocate(1, 32); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 32); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}

	matched, err := m.ClaimPrefixHashed(2, m.HashPrompt(prompt))
	if err != nil || matched != 31 {
		t.Fatalf("ClaimPrefix = %d, %v; want 31", matched, err)
	}
	if err := m.Extend(2, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.prefix.cowCopies; got != 1 {
		t.Fatalf("CowCopies = %d, want 1 (sole owner still may not write cached content)", got)
	}
	// The original tail block went back to the cached pool and stays
	// matchable.
	if got := lookup(m, prompt); got != 31 {
		t.Fatalf("Lookup after COW = %d, want 31", got)
	}
	mustInvariants(t, m)
}

// TestPrefixEvictionRacesAdmission: allocation pressure may only
// reclaim refcount-zero cached blocks — a block claimed by an
// admission a moment earlier must survive the eviction scan, and an
// allocation that cannot be covered by free+cached fails atomically.
func TestPrefixEvictionRacesAdmission(t *testing.T) {
	m := newPrefixManager(t, 4, 0)
	prompt := toks(64, 4)

	if err := m.Allocate(1, 64); err != nil { // all 4 blocks
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 64); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedBlocks(); got != 4 {
		t.Fatalf("CachedBlocks = %d, want 4", got)
	}

	// Admission claims the first two cached blocks...
	matched, err := m.ClaimPrefixHashed(2, m.HashPrompt(prompt[:40]))
	if err != nil || matched != 32 {
		t.Fatalf("ClaimPrefix = %d, %v; want 32", matched, err)
	}
	t2 := blockTable(t, m, 2)

	// ...so a 3-block allocation exceeds the 2 reclaimable blocks and
	// must fail atomically without touching the claimed ones.
	if err := m.Allocate(3, 48); err == nil {
		t.Fatal("Allocate(48 tokens) succeeded with only 2 reclaimable blocks")
	}
	mustInvariants(t, m)

	// A 2-block allocation evicts exactly the refcount-zero cached
	// blocks; the claimed blocks survive with their content matchable.
	if err := m.Allocate(3, 32); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedBlocks(); got != 0 {
		t.Fatalf("CachedBlocks after pressure = %d, want 0", got)
	}
	if m.prefix.evictions == 0 {
		t.Fatal("eviction under pressure not counted")
	}
	after := blockTable(t, m, 2)
	if after[0] != t2[0] || after[1] != t2[1] {
		t.Fatalf("claimed blocks changed under eviction: %v vs %v", after, t2)
	}
	if got := lookup(m, prompt[:40]); got != 32 {
		t.Fatalf("Lookup(claimed prefix) = %d, want 32 (owned blocks stay advertised)", got)
	}
	mustInvariants(t, m)
}

// TestPrefixPreemptionReleasesShared: freeing a preempted sequence
// drops references, not blocks — the surviving sharer keeps its table
// and the blocks never hit the free list while referenced.
func TestPrefixPreemptionReleasesShared(t *testing.T) {
	m := newPrefixManager(t, 8, 0)
	prompt := toks(48, 5)

	if err := m.Allocate(1, 48); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 48); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ClaimPrefixHashed(2, m.HashPrompt(prompt)); err != nil {
		t.Fatal(err)
	}
	free := m.FreeBlocks()

	// Preempt the original mid-flight.
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
	// Seq 2 still owns every shared block, so preempting seq 1 frees
	// nothing: no block ever reaches the free list while referenced.
	if got := m.FreeBlocks(); got != free {
		t.Fatalf("FreeBlocks after preempting sharer = %d, want %d (all blocks still referenced)", got, free)
	}
	if err := m.Extend(2, 16); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
	if err := m.Free(2); err != nil {
		t.Fatal(err)
	}
	if got, want := m.FreeBlocks(), 8; got != want {
		t.Fatalf("FreeBlocks after drain = %d, want %d", got, want)
	}
	mustInvariants(t, m)
}

func TestPrefixCacheCapBoundsParkedBlocks(t *testing.T) {
	m := newPrefixManager(t, 8, 1)
	prompt := toks(48, 6)

	if err := m.Allocate(1, 48); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(prompt), 48); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedBlocks(); got > 1 {
		t.Fatalf("CachedBlocks = %d, want <= 1 (cap)", got)
	}
	if m.prefix.evictions == 0 {
		t.Fatal("cap enforcement not counted as evictions")
	}
	mustInvariants(t, m)
}

func TestPrefixEnableValidation(t *testing.T) {
	m, err := NewManager(Config{BlockTokens: 16, TotalBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnablePrefixCache(-1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := m.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.EnablePrefixCache(0); err == nil {
		t.Fatal("enabling on a non-empty manager accepted")
	}
}

// TestPrefixDisabledUnchanged: without EnablePrefixCache the prefix
// entry points are inert — nothing registers in the trie, so a
// released block goes straight back to the free list — and the
// refcount audit still catches a block owned twice.
func TestPrefixDisabledUnchanged(t *testing.T) {
	newOff := func() *Manager {
		m, err := NewManager(Config{BlockTokens: 16, TotalBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := newOff()
	if got := lookup(m, toks(32, 7)); got != 0 {
		t.Fatalf("Lookup on disabled cache = %d, want 0", got)
	}
	if _, err := m.ClaimPrefixHashed(1, m.HashPrompt(toks(32, 7))); err == nil {
		t.Fatal("ClaimPrefix on disabled cache accepted")
	}
	if err := m.Allocate(1, 20); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(1, m.HashPrompt(toks(32, 7)), 20); err != nil {
		t.Fatal(err) // no-op, not an error
	}
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)

	// A handoff between cache-off managers: the export carries the
	// prompt's keys, yet neither side registers anything.
	prompt := toks(40, 7)
	exp := exportSeq(t, m, 2, prompt, 1)
	if len(exp.HP.keys) != 2 {
		t.Fatalf("export carries %d prompt keys, want 2", len(exp.HP.keys))
	}
	dst := newOff()
	stats, err := dst.ImportKV(exp)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReusedTokens != 0 || stats.ExpandedBlocks != 3 {
		t.Fatalf("cache-off import reused %d tokens and expanded %d blocks, want 0 and 3",
			stats.ReusedTokens, stats.ExpandedBlocks)
	}
	mustInvariants(t, dst)
	for _, side := range []*Manager{m, dst} {
		if err := side.Free(2); err != nil {
			t.Fatal(err)
		}
		if side.CachedBlocks() != 0 || side.CompressedBlocks() != 0 || side.PrefixSummary() != nil || side.FreeBlocks() != 4 {
			t.Fatalf("freed cache-off manager: %d cached, %d compressed, summary %v, %d free; want 0, 0, nil, 4",
				side.CachedBlocks(), side.CompressedBlocks(), side.PrefixSummary(), side.FreeBlocks())
		}
		mustInvariants(t, side)
	}

	// One block in two sequences' tables: sequence 4 grows into the
	// block sequence 3 owns.
	for id := 3; id <= 4; id++ {
		if err := dst.Allocate(id, 16); err != nil {
			t.Fatal(err)
		}
	}
	st := dst.seqs[4]
	st.table = append(st.table, dst.seqs[3].table[0])
	st.tokens += 16
	if err := dst.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "reference it 2 times") {
		t.Fatalf("CheckInvariants with a block in two tables = %v, want a double-reference error", err)
	}
}

// scanVictim is the eviction choice made by scanning, the oracle for
// evictOne's pool heaps: over every pooled node (the frozen pool only
// when includeFrozen), prefer a trie leaf, then the least recently
// used.
func scanVictim(m *Manager, includeFrozen bool) *prefixNode {
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
	return victim
}

// TestPrefixPoolsMatchReferences drives a compressed manager with a
// small pool cap through random commits, claims, frees, copy-on-write
// growth, cap shrinks, codec faults (which park blocks physically, so
// both pools fill) and allocation pressure. Some admissions prefill
// privately instead of claiming, so their commit walks touch pooled
// nodes another sequence registered. Every eviction's victim must be
// the one the scan picks, and after every mutation the digest must
// equal the one rebuilt by re-hashing the trie.
func TestPrefixPoolsMatchReferences(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newCompressedManager(t, 48, 12)
		evicted := map[bool]int{}
		m.prefix.onEvict = func(victim *prefixNode, includeFrozen bool) {
			if want := scanVictim(m, includeFrozen); victim != want {
				t.Fatalf("seed %d: evicted node (block %d, lastUse %d), scan picks (block %d, lastUse %d)",
					seed, victim.block, victim.lastUse, want.block, want.lastUse)
			}
			evicted[includeFrozen]++
		}
		fault := false
		m.SetCodecFault(func() bool { return fault })
		prompts := map[int][]int{}
		nextID := 1
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // admit: claim the cached prefix, prefill the rest, commit
				prompt := append(toks(16*rng.Intn(5), 1+rng.Intn(3)), toks(1+rng.Intn(40), 1000+step)...)
				if rng.Intn(4) == 0 {
					prompt = toks(16*(1+rng.Intn(4)), 1+rng.Intn(3)) // exact repeat, fully cached
				}
				if BlocksFor(len(prompt), 16)+1 > m.FreeBlocks() {
					continue
				}
				id := nextID
				nextID++
				matched, err := 0, error(nil)
				if rng.Intn(4) != 0 { // else prefill privately, as a batch-mate of the first writer would
					if matched, err = m.ClaimPrefixHashed(id, m.HashPrompt(prompt)); err != nil {
						t.Fatal(err)
					}
				}
				if matched == 0 {
					err = m.Allocate(id, len(prompt))
				} else if matched < len(prompt) {
					err = m.Extend(id, len(prompt)-matched)
				}
				if err != nil {
					t.Fatal(err)
				}
				prompts[id] = prompt
				if err := m.CommitPrefixHashed(id, m.HashPrompt(prompt), rng.Intn(len(prompt)+1)); err != nil {
					t.Fatal(err)
				}
			case op < 4 && len(prompts) > 0: // finish committing, then grow (copy-on-write)
				id := anyKey(rng, prompts)
				if err := m.CommitPrefixHashed(id, m.HashPrompt(prompts[id]), len(prompts[id])); err != nil {
					t.Fatal(err)
				}
				if m.FreeBlocks() > 2 {
					if err := m.Extend(id, 1+rng.Intn(16)); err != nil {
						t.Fatal(err)
					}
				}
			case op < 7 && len(prompts) > 0: // free
				id := anyKey(rng, prompts)
				if err := m.Free(id); err != nil {
					t.Fatal(err)
				}
				delete(prompts, id)
			case op < 8: // resize the pool, mostly shrinking
				if err := m.SetPrefixCacheCap(2 + rng.Intn(14)); err != nil {
					t.Fatal(err)
				}
			case op < 9: // allocation pressure: a private sequence drains the free list
				if n := m.FreeBlocks(); n > 0 {
					id := nextID
					nextID++
					if err := m.Allocate(id, 16*n); err != nil {
						t.Fatal(err)
					}
					if err := m.Free(id); err != nil {
						t.Fatal(err)
					}
				}
			default:
				fault = !fault
			}
			mustInvariants(t, m)
			if got, want := m.PrefixSummary(), referencePrefixSummary(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: PrefixSummary = %+v, reference %+v", seed, step, got, want)
			}
		}
		if evicted[false] == 0 || evicted[true] == 0 {
			t.Fatalf("seed %d: evictions under pressure %d, under the cap %d; want both exercised",
				seed, evicted[false], evicted[true])
		}
	}
}

// anyKey returns a uniformly random key of m.
func anyKey(rng *rand.Rand, m map[int][]int) int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids[rng.Intn(len(ids))]
}
