package kvcache

import (
	"errors"
	"testing"
)

// exportSeq allocates a sequence holding prompt + generated tokens on
// m, commits the prompt to the trie, and exports it.
func exportSeq(t testing.TB, m *Manager, seqID int, prompt []int, generated int) *KVExport {
	t.Helper()
	if err := m.Allocate(seqID, len(prompt)+generated); err != nil {
		t.Fatal(err)
	}
	hp := m.HashPrompt(prompt)
	if err := m.CommitPrefixHashed(seqID, hp, len(prompt)); err != nil {
		t.Fatal(err)
	}
	exp, err := m.ExportKV(seqID, hp)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestKVExportShape(t *testing.T) {
	m := newPrefixManager(t, 32, 0)
	prompt := toks(40, 1) // 2 full prompt blocks + a 8-token tail
	exp := exportSeq(t, m, 1, prompt, 3)

	if exp.Tokens != 43 || exp.BlockTokens != 16 {
		t.Fatalf("export = %d tokens at block size %d, want 43 at 16", exp.Tokens, exp.BlockTokens)
	}
	if got := len(exp.Keys); got != 3 {
		t.Fatalf("export holds %d blocks, want 3", got)
	}
	// Prompt-covered full blocks carry the prompt's content keys (the
	// dedup handles); the mixed prompt+generated tail carries a private
	// one.
	hp := m.HashPrompt(prompt)
	for i := 0; i < 2; i++ {
		if exp.Keys[i] != hp.keys[i] {
			t.Fatalf("block %d key is not the prompt content key", i)
		}
	}
	if exp.Keys[2] == hp.keys[0] || exp.Keys[2][:8] != "handoff/" {
		t.Fatalf("tail block key %q, want a private handoff key", exp.Keys[2])
	}
	if exp.CompressedBytes() <= 0 || exp.CompressedBytes() >= exp.origBytes {
		t.Fatalf("compressed payload %d of %d original bytes, want real compression",
			exp.CompressedBytes(), exp.origBytes)
	}
	// Export is read-only: the source still owns every block.
	if got := liveSeq(t, m, 1).tokens; got != 43 {
		t.Fatalf("source sequence holds %d tokens after export, want 43", got)
	}
	mustInvariants(t, m)
}

func TestKVImportColdTargetBitExact(t *testing.T) {
	src := newPrefixManager(t, 32, 0)
	prompt := toks(40, 1)
	exp := exportSeq(t, src, 1, prompt, 3)

	dst := newPrefixManager(t, 32, 0)
	stats, err := dst.ImportKV(exp)
	if err != nil {
		t.Fatal(err)
	}
	// A cold target supplies nothing: every block expands from the wire
	// payload (each one verified bit-for-bit against its key's content
	// inside ImportKV).
	if stats.ReusedTokens != 0 || stats.Thawed != 0 {
		t.Fatalf("cold import reused %d tokens / thawed %d, want 0/0", stats.ReusedTokens, stats.Thawed)
	}
	if stats.ExpandedBlocks != 3 || stats.GrowPops != 3 {
		t.Fatalf("cold import expanded %d blocks with %d pops, want 3/3", stats.ExpandedBlocks, stats.GrowPops)
	}
	if got := liveSeq(t, dst, exp.SeqID).tokens; got != exp.Tokens {
		t.Fatalf("imported sequence holds %d tokens, want %d", got, exp.Tokens)
	}
	mustInvariants(t, dst)

	// Re-exporting from the target reproduces the original payload key
	// for key and bit for bit.
	hp := dst.HashPrompt(prompt)
	back, err := dst.ExportKV(exp.SeqID, hp)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tokens != exp.Tokens || len(back.Keys) != len(exp.Keys) {
		t.Fatalf("re-export = %d tokens / %d blocks, want %d / %d",
			back.Tokens, len(back.Keys), exp.Tokens, len(exp.Keys))
	}
	for i := range exp.Keys {
		if back.Keys[i] != exp.Keys[i] {
			t.Fatalf("re-export block %d key differs", i)
		}
		a, err := exp.payloads[i].decode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.payloads[i].decode()
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("re-export block %d content differs", i)
		}
	}

	// The import committed the prompt to the target's trie: a sibling
	// request sharing the prefix hits it.
	if got := lookup(dst, prompt); got != 32 {
		t.Fatalf("Lookup on import target = %d, want the 32 full prompt tokens", got)
	}
}

func TestKVImportDedupAgainstWarmTrie(t *testing.T) {
	src := newPrefixManager(t, 32, 0)
	prompt := toks(40, 1)
	exp := exportSeq(t, src, 7, prompt, 3)

	// Warm the target: another request already served this prompt and
	// finished, parking its advertised blocks in the cached pool.
	dst := newPrefixManager(t, 32, 0)
	if err := dst.Allocate(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := dst.CommitPrefixHashed(1, dst.HashPrompt(prompt), 40); err != nil {
		t.Fatal(err)
	}
	if err := dst.Free(1); err != nil {
		t.Fatal(err)
	}

	hits := dst.PrefixHits()
	stats, err := dst.ImportKV(exp)
	if err != nil {
		t.Fatal(err)
	}
	// The content-addressed claim supplies the parked prompt blocks by
	// reference; only the tail expands from the wire.
	if stats.ReusedTokens != 32 {
		t.Fatalf("warm import reused %d tokens, want 32", stats.ReusedTokens)
	}
	if stats.ExpandedBlocks != 1 {
		t.Fatalf("warm import expanded %d blocks, want only the tail", stats.ExpandedBlocks)
	}
	if dst.PrefixHits() != hits+1 {
		t.Fatalf("PrefixHits = %d, want %d", dst.PrefixHits(), hits+1)
	}
	if got := liveSeq(t, dst, exp.SeqID).tokens; got != exp.Tokens {
		t.Fatalf("imported sequence holds %d tokens, want %d", got, exp.Tokens)
	}
	mustInvariants(t, dst)
}

func TestKVImportThawsFrozenBlocks(t *testing.T) {
	src := newCompressedManager(t, 32, 0)
	prompt := toks(40, 1)
	exp := exportSeq(t, src, 7, prompt, 3)

	// Warm target whose prompt blocks went cold and froze: the dedup
	// claim must thaw them (local decompression) rather than expand
	// from the wire.
	dst := newCompressedManager(t, 32, 0)
	if err := dst.Allocate(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := dst.CommitPrefixHashed(1, dst.HashPrompt(prompt), 40); err != nil {
		t.Fatal(err)
	}
	if err := dst.Free(1); err != nil {
		t.Fatal(err)
	}
	if got := dst.CompressedBlocks(); got != 2 {
		t.Fatalf("warmup froze %d blocks, want 2", got)
	}

	stats, err := dst.ImportKV(exp)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReusedTokens != 32 || stats.Thawed != 2 || stats.ExpandedBlocks != 1 {
		t.Fatalf("frozen-warm import = %+v, want 32 reused / 2 thawed / 1 expanded", stats)
	}
	mustInvariants(t, dst)
}

func TestKVImportDuplicateFailsUntouched(t *testing.T) {
	src := newPrefixManager(t, 32, 0)
	prompt := toks(40, 1)
	exp := exportSeq(t, src, 7, prompt, 3)

	dst := newPrefixManager(t, 32, 0)
	if _, err := dst.ImportKV(exp); err != nil {
		t.Fatal(err)
	}
	free, pops := dst.FreeBlocks(), dst.Pops()
	if _, err := dst.ImportKV(exp); !errors.Is(err, ErrSequenceExists) {
		t.Fatalf("duplicate import = %v, want ErrSequenceExists", err)
	}
	if dst.FreeBlocks() != free || dst.Pops() != pops {
		t.Fatal("duplicate import mutated the manager")
	}
	mustInvariants(t, dst)

	// After the duplicate is freed (its request finished or the replica
	// re-balances), a retried import of the same export succeeds — the
	// failover path: content-addressed, so replayable anywhere.
	if err := dst.Free(exp.SeqID); err != nil {
		t.Fatal(err)
	}
	stats, err := dst.ImportKV(exp)
	if err != nil {
		t.Fatal(err)
	}
	// The freed sequence parked its prompt blocks, so the retry dedups.
	if stats.ReusedTokens != 32 {
		t.Fatalf("retried import reused %d tokens, want 32", stats.ReusedTokens)
	}
	mustInvariants(t, dst)
}

func TestKVImportRejectsCorruptPayload(t *testing.T) {
	src := newPrefixManager(t, 32, 0)
	prompt := toks(40, 1)
	exp := exportSeq(t, src, 7, prompt, 3)

	// Flip the tail block's key: the stored payload no longer matches a
	// re-synthesis of the advertised content.
	tampered := *exp
	tampered.Keys = append([]string(nil), exp.Keys...)
	tampered.Keys[2] = "handoff/tampered"
	// Drop the tail block's payload: the export holds one payload fewer
	// than it has keys.
	short := *exp
	short.payloads = exp.payloads[:len(exp.payloads)-1]
	for name, bad := range map[string]*KVExport{"corrupt payload": &tampered, "missing payload": &short} {
		dst := newPrefixManager(t, 32, 0)
		free, pops := dst.FreeBlocks(), dst.Pops()
		if _, err := dst.ImportKV(bad); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if dst.FreeBlocks() != free || dst.Pops() != pops || len(dst.seqs) != 0 {
			t.Fatalf("rejected import (%s) left state behind", name)
		}
		mustInvariants(t, dst)
	}
}

func TestKVImportCapacityFailureRollsBack(t *testing.T) {
	src := newPrefixManager(t, 32, 0)
	prompt := toks(40, 1)
	exp := exportSeq(t, src, 7, prompt, 3)

	// 2 free blocks cannot hold the 3-block import; the failure must
	// leave nothing allocated.
	dst := newPrefixManager(t, 2, 0)
	if _, err := dst.ImportKV(exp); err == nil {
		t.Fatal("oversized import accepted")
	}
	if got := dst.FreeBlocks(); got != 2 {
		t.Fatalf("failed import left %d free blocks, want 2", got)
	}
	if len(dst.seqs) != 0 {
		t.Fatal("failed import left a sequence behind")
	}
	mustInvariants(t, dst)
}

func TestKVImportValidation(t *testing.T) {
	src := newPrefixManager(t, 32, 0)
	prompt := toks(40, 1)
	exp := exportSeq(t, src, 7, prompt, 3)

	if _, err := src.ExportKV(99, src.HashPrompt(prompt)); err == nil {
		t.Fatal("export of unknown sequence accepted")
	}
	coarse, err := NewManager(Config{BlockTokens: 32, TotalBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coarse.ImportKV(exp); err == nil {
		t.Fatal("import across block granularities accepted")
	}
	bad := *exp
	bad.Tokens = 10 // 3 blocks for 10 tokens: malformed
	dst := newPrefixManager(t, 32, 0)
	if _, err := dst.ImportKV(&bad); err == nil {
		t.Fatal("malformed import accepted")
	}
	mustInvariants(t, dst)
}

// FuzzKVHandoffRoundtrip drives randomized export→import handoffs and
// asserts the subsystem's core contract: the imported sequence's
// re-export reproduces the original payload bit for bit, block
// accounting is conserved on both managers, and duplicate imports are
// rejected without side effects.
func FuzzKVHandoffRoundtrip(f *testing.F) {
	f.Add(uint8(40), uint8(3), uint8(1), true, true)
	f.Add(uint8(16), uint8(1), uint8(2), false, false)
	f.Add(uint8(1), uint8(7), uint8(3), true, false)
	f.Add(uint8(200), uint8(50), uint8(4), false, true)
	f.Fuzz(func(t *testing.T, promptLen, generated, seed uint8, warm, compressed bool) {
		if promptLen == 0 || generated == 0 {
			t.Skip()
		}
		newMgr := func() *Manager {
			m, err := NewManager(Config{BlockTokens: 16, TotalBlocks: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.EnablePrefixCache(0); err != nil {
				t.Fatal(err)
			}
			if compressed {
				if err := m.EnableCompressedCache(); err != nil {
					t.Fatal(err)
				}
			}
			return m
		}
		prompt := toks(int(promptLen), int(seed))

		src := newMgr()
		if err := src.Allocate(1, len(prompt)+int(generated)); err != nil {
			t.Fatal(err)
		}
		hp := src.HashPrompt(prompt)
		if err := src.CommitPrefixHashed(1, hp, len(prompt)); err != nil {
			t.Fatal(err)
		}
		exp, err := src.ExportKV(1, hp)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.CheckInvariants(); err != nil {
			t.Fatalf("source after export: %v", err)
		}

		dst := newMgr()
		if warm {
			if err := dst.Allocate(9, len(prompt)); err != nil {
				t.Fatal(err)
			}
			if err := dst.CommitPrefixHashed(9, dst.HashPrompt(prompt), len(prompt)); err != nil {
				t.Fatal(err)
			}
			if err := dst.Free(9); err != nil {
				t.Fatal(err)
			}
		}
		freeBefore := dst.FreeBlocks()
		stats, err := dst.ImportKV(exp)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.CheckInvariants(); err != nil {
			t.Fatalf("target after import: %v", err)
		}
		if got := liveSeq(t, dst, exp.SeqID).tokens; got != exp.Tokens {
			t.Fatalf("imported %d tokens, want %d", got, exp.Tokens)
		}
		// Refcount conservation: the sequence owns exactly its block
		// count, and free capacity dropped by exactly the physical
		// blocks the import claimed (thaws and growth; dedup-supplied
		// parked blocks were already outside the free pool only once).
		table := blockTable(t, dst, exp.SeqID)
		if len(table) != BlocksFor(exp.Tokens, 16) {
			t.Fatalf("imported table holds %d blocks for %d tokens", len(table), exp.Tokens)
		}
		if used := freeBefore - dst.FreeBlocks(); used > len(table) {
			t.Fatalf("import consumed %d free blocks for a %d-block table", used, len(table))
		}

		// Duplicate import: rejected, no side effects.
		free, pops := dst.FreeBlocks(), dst.Pops()
		if _, err := dst.ImportKV(exp); !errors.Is(err, ErrSequenceExists) {
			t.Fatalf("duplicate import = %v, want ErrSequenceExists", err)
		}
		if dst.FreeBlocks() != free || dst.Pops() != pops {
			t.Fatal("duplicate import mutated the manager")
		}

		// Bit-for-bit roundtrip: re-export and compare payloads.
		back, err := dst.ExportKV(exp.SeqID, dst.HashPrompt(prompt))
		if err != nil {
			t.Fatal(err)
		}
		if back.Tokens != exp.Tokens || len(back.Keys) != len(exp.Keys) {
			t.Fatalf("re-export shape (%d tokens, %d blocks) != original (%d, %d)",
				back.Tokens, len(back.Keys), exp.Tokens, len(exp.Keys))
		}
		for i := range exp.Keys {
			if back.Keys[i] != exp.Keys[i] {
				t.Fatalf("re-export block %d key differs", i)
			}
			a, err := exp.payloads[i].decode()
			if err != nil {
				t.Fatal(err)
			}
			b, err := back.payloads[i].decode()
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) {
				t.Fatalf("re-export block %d content differs", i)
			}
		}
		_ = stats
	})
}

// BenchmarkExportImportKV is one disaggregated handoff as disagg-long's
// replicas run it: export a 784-token (49-block) sequence of a
// length-only request (private handoff keys), import it into a Manager
// without the prefix cache — so every block is decoded and verified —
// and free it there.
func BenchmarkExportImportKV(b *testing.B) {
	const tokens = 49 * DefaultBlockTokens
	cfg := Config{BlockTokens: DefaultBlockTokens, TotalBlocks: 64}
	src, err := NewManager(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := NewManager(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := src.Allocate(1, tokens); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := src.ExportKV(1, HashedPrompt{})
		if err != nil {
			b.Fatal(err)
		}
		if st, err := dst.ImportKV(exp); err != nil || st.ExpandedBlocks != 49 {
			b.Fatalf("import expanded %d blocks, %v; want 49", st.ExpandedBlocks, err)
		}
		if err := dst.Free(1); err != nil {
			b.Fatal(err)
		}
	}
}
