package kvcache

import (
	"sort"
	"testing"
)

// commitPrompt prefills a prompt the long way and advertises its full
// blocks in the trie.
func commitPrompt(t *testing.T, m *Manager, seqID int, prompt []int) {
	t.Helper()
	if err := m.Allocate(seqID, len(prompt)); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPrefixHashed(seqID, m.HashPrompt(prompt), len(prompt)); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSummaryMatchMirrorsLookup(t *testing.T) {
	m := newPrefixManager(t, 64, 0)
	prompt := toks(80, 1) // five full blocks
	commitPrompt(t, m, 1, prompt)

	s := m.PrefixSummary()
	if s == nil {
		t.Fatal("PrefixSummary = nil with prefix cache enabled")
	}
	if s.Blocks != 5 || s.BlockTokens != 16 || len(s.Roots) != 1 {
		t.Fatalf("summary = %d blocks / %d tokens-per-block / %d roots, want 5/16/1",
			s.Blocks, s.BlockTokens, len(s.Roots))
	}

	// The summary's estimate agrees with the trie's exact walk on
	// shared-prefix prompts of every depth, including the fully cached
	// len−1 cap, and rejects an unrelated prompt at the root gate.
	for _, probe := range [][]int{prompt, prompt[:40], prompt[:32], prompt[:16], toks(80, 99)} {
		want := lookup(m, probe)
		got := s.MatchTokens(HashPromptTokens(probe, s.BlockTokens))
		if got != want {
			t.Errorf("MatchTokens(%d tokens) = %d, want Lookup's %d", len(probe), got, want)
		}
	}
	// Shared first blocks with a divergent tail: the bloom stops the
	// match at the divergence (no full-prompt overestimate).
	mixed := append(append([]int(nil), prompt[:32]...), toks(48, 7)...)
	if got, want := s.MatchTokens(HashPromptTokens(mixed, s.BlockTokens)), lookup(m, mixed); got != want {
		t.Errorf("MatchTokens(divergent tail) = %d, want %d", got, want)
	}
	// A sub-block prompt has no full block to match.
	if got := s.MatchTokens(HashPromptTokens(prompt[:10], s.BlockTokens)); got != 0 {
		t.Errorf("MatchTokens(10 tokens) = %d, want 0", got)
	}
}

func TestPrefixSummaryMemoizedPerGeneration(t *testing.T) {
	m := newPrefixManager(t, 64, 0)
	commitPrompt(t, m, 1, toks(48, 1))

	s1 := m.PrefixSummary()
	if s2 := m.PrefixSummary(); s2 != s1 {
		t.Fatal("unchanged trie rebuilt the summary")
	}
	// A trie mutation (new advertised content) invalidates the digest
	// and bumps its epoch.
	commitPrompt(t, m, 2, toks(48, 2))
	s3 := m.PrefixSummary()
	if s3 == s1 {
		t.Fatal("trie mutation did not rebuild the summary")
	}
	if s3.Epoch <= s1.Epoch {
		t.Fatalf("epoch %d did not advance past %d", s3.Epoch, s1.Epoch)
	}
	if len(s3.Roots) != 2 || s3.Blocks != 6 {
		t.Fatalf("summary after second tenant = %d roots / %d blocks, want 2/6", len(s3.Roots), s3.Blocks)
	}
}

func TestPrefixSummaryDisabledAndEmpty(t *testing.T) {
	m, err := NewManager(Config{BlockTokens: 16, TotalBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.PrefixSummary(); s != nil {
		t.Fatalf("PrefixSummary without prefix cache = %+v, want nil", s)
	}

	m2 := newPrefixManager(t, 8, 0)
	s := m2.PrefixSummary()
	if s == nil {
		t.Fatal("empty trie summary = nil, want empty digest")
	}
	if s.Blocks != 0 || len(s.Roots) != 0 || s.Bloom != nil {
		t.Fatalf("empty trie summary = %+v, want zero blocks, no roots, no bloom", s)
	}
	if got := s.MatchTokens(HashPromptTokens(toks(32, 1), 16)); got != 0 {
		t.Fatalf("MatchTokens on empty summary = %d, want 0", got)
	}
	var nilSummary *PrefixSummary
	if got := nilSummary.MatchTokens(HashPromptTokens(toks(32, 1), 16)); got != 0 {
		t.Fatalf("MatchTokens on nil summary = %d, want 0", got)
	}
}

func TestPrefixSummaryBloomFalsePositiveRate(t *testing.T) {
	m := newPrefixManager(t, 2048, 0)
	// Advertise 32 tenants × 4 blocks = 128 trie nodes.
	for tenant := 0; tenant < 32; tenant++ {
		commitPrompt(t, m, tenant+1, toks(64, tenant+1))
	}
	s := m.PrefixSummary()
	if s.Blocks != 128 {
		t.Fatalf("Blocks = %d, want 128", s.Blocks)
	}
	if bits := len(s.Bloom) * 64; bits < s.Blocks*summaryBloomBitsPerEntry {
		t.Fatalf("bloom %d bits undersized for %d entries", bits, s.Blocks)
	}
	// Probe with fingerprints of unadvertised paths; at ~10 bits/entry
	// and k=4 the analytical FP rate is ~1.2%, so 2000 probes should
	// see far fewer than 5% positives even with unlucky seeds.
	fp := 0
	const probes = 2000
	for i := 0; i < probes; i++ {
		h := fnvString(fnvOffset64, contentKey(toks(16, 100000+i)))
		if bloomTest(s.Bloom, s.BloomK, h) {
			fp++
		}
	}
	if fp > probes*5/100 {
		t.Fatalf("bloom false-positive rate %d/%d exceeds 5%%", fp, probes)
	}
}

func TestMergePrefixSummaries(t *testing.T) {
	m1 := newPrefixManager(t, 64, 0)
	commitPrompt(t, m1, 1, toks(48, 1))
	m2 := newPrefixManager(t, 64, 0)
	commitPrompt(t, m2, 1, toks(48, 2))
	s1, s2 := m1.PrefixSummary(), m2.PrefixSummary()

	merged := MergePrefixSummaries([]*PrefixSummary{s1, nil, s2})
	if merged == nil {
		t.Fatal("merged = nil")
	}
	if merged.Blocks != 6 || len(merged.Roots) != 2 {
		t.Fatalf("merged = %d blocks / %d roots, want 6/2", merged.Blocks, len(merged.Roots))
	}
	if merged.Epoch < s1.Epoch || merged.Epoch < s2.Epoch {
		t.Fatalf("merged epoch %d older than inputs (%d, %d)", merged.Epoch, s1.Epoch, s2.Epoch)
	}
	// Equal-sized blooms OR together: both tenants' prompts match the
	// fleet digest (fully cached, so capped at len−1).
	for seed := 1; seed <= 2; seed++ {
		probe := toks(48, seed)
		if got := merged.MatchTokens(HashPromptTokens(probe, merged.BlockTokens)); got != 47 {
			t.Errorf("merged MatchTokens(tenant %d) = %d, want 47", seed, got)
		}
	}
	// Duplicate roots dedup.
	again := MergePrefixSummaries([]*PrefixSummary{s1, s1})
	if len(again.Roots) != 1 || again.Blocks != 6 {
		t.Fatalf("self-merge = %d roots / %d blocks, want 1 root / 6 blocks", len(again.Roots), again.Blocks)
	}

	// Mismatched granularity keeps the block count but drops the
	// fingerprint structures — they never compare across block sizes.
	m3, err := NewManager(Config{BlockTokens: 32, TotalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.EnablePrefixCache(0); err != nil {
		t.Fatal(err)
	}
	commitPrompt(t, m3, 1, toks(64, 3))
	mixed := MergePrefixSummaries([]*PrefixSummary{s1, m3.PrefixSummary()})
	if mixed.BlockTokens != 0 || mixed.Roots != nil || mixed.Bloom != nil {
		t.Fatalf("mixed-granularity merge kept fingerprints: %+v", mixed)
	}
	if mixed.Blocks != 5 {
		t.Fatalf("mixed-granularity merge Blocks = %d, want 5", mixed.Blocks)
	}

	if MergePrefixSummaries(nil) != nil || MergePrefixSummaries([]*PrefixSummary{nil, nil}) != nil {
		t.Fatal("all-nil merge should be nil")
	}
}

// referencePrefixSummary is the digest built the direct way, the
// oracle for PrefixSummary's stored fingerprints: recurse through the
// trie's child maps from the root, re-hashing every node's path
// fingerprint from its content key.
func referencePrefixSummary(m *Manager) *PrefixSummary {
	var (
		roots []uint64
		paths []uint64
	)
	var dfs func(n *prefixNode, h uint64)
	dfs = func(n *prefixNode, h uint64) {
		for key, c := range n.children {
			ch := fnvString(h, key)
			if n == m.prefix.root {
				roots = append(roots, ch)
			}
			paths = append(paths, ch)
			dfs(c, ch)
		}
	}
	dfs(m.prefix.root, fnvOffset64)
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	s := &PrefixSummary{
		BlockTokens: m.cfg.BlockTokens,
		Blocks:      len(paths),
		Roots:       roots,
		Epoch:       m.gen,
	}
	if len(paths) > 0 {
		s.Bloom = make([]uint64, bloomBits(len(paths))/64)
		s.BloomK = summaryBloomK
		for _, h := range paths {
			bloomAdd(s.Bloom, s.BloomK, h)
		}
	}
	return s
}
