package kvcache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zipserv/internal/weights"
)

func newTestManager(t *testing.T, blocks int) *Manager {
	t.Helper()
	m, err := NewManager(Config{BlockTokens: DefaultBlockTokens, TotalBlocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{BlockTokens: 0, TotalBlocks: 10}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewManager(Config{BlockTokens: 16, TotalBlocks: 0}); err == nil {
		t.Error("zero total blocks accepted")
	}
}

// liveSeq returns a live sequence's state.
func liveSeq(t *testing.T, m *Manager, seqID int) *seqState {
	t.Helper()
	st, ok := m.seqs[seqID]
	if !ok {
		t.Fatalf("unknown sequence %d", seqID)
	}
	return st
}

// blockTable returns a copy of a live sequence's block table.
func blockTable(t *testing.T, m *Manager, seqID int) []int {
	t.Helper()
	return append([]int(nil), liveSeq(t, m, seqID).table...)
}

func TestAllocateAndFree(t *testing.T) {
	m := newTestManager(t, 10)
	if err := m.Allocate(1, 33); err != nil { // 33 tokens → 3 blocks
		t.Fatal(err)
	}
	if m.UsedBlocks() != 3 || m.FreeBlocks() != 7 {
		t.Errorf("used/free = %d/%d, want 3/7", m.UsedBlocks(), m.FreeBlocks())
	}
	if table := blockTable(t, m, 1); len(table) != 3 {
		t.Fatalf("block table %v, want 3 blocks", table)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 10 {
		t.Errorf("after Free, %d free, want 10", m.FreeBlocks())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateErrors(t *testing.T) {
	m := newTestManager(t, 4)
	if err := m.Allocate(1, 0); err == nil {
		t.Error("zero-token allocation accepted")
	}
	if err := m.Allocate(1, 64); err != nil { // exactly 4 blocks
		t.Fatal(err)
	}
	if err := m.Allocate(1, 16); err == nil {
		t.Error("duplicate sequence id accepted")
	}
	if err := m.Allocate(2, 1); err == nil {
		t.Error("allocation beyond capacity accepted")
	}
	// Failure must be atomic: freeing seq 1 restores all capacity.
	if err := m.Free(1); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 4 {
		t.Errorf("capacity leaked: %d free, want 4", m.FreeBlocks())
	}
}

func TestAppendTokenBlockBoundary(t *testing.T) {
	m := newTestManager(t, 3)
	if err := m.Allocate(7, 16); err != nil { // exactly one block
		t.Fatal(err)
	}
	if m.UsedBlocks() != 1 {
		t.Fatalf("used = %d, want 1", m.UsedBlocks())
	}
	// Token 17 crosses into a second block.
	if err := m.AppendToken(7); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 2 || liveSeq(t, m, 7).tokens != 17 {
		t.Errorf("used=%d tokens=%d, want 2/17", m.UsedBlocks(), liveSeq(t, m, 7).tokens)
	}
	// Fill to 48 tokens = 3 blocks, then the next append must fail.
	for i := 17; i < 48; i++ {
		if err := m.AppendToken(7); err != nil {
			t.Fatalf("append at %d tokens: %v", i, err)
		}
	}
	if err := m.AppendToken(7); err == nil {
		t.Error("append beyond capacity accepted")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendChunks(t *testing.T) {
	m := newTestManager(t, 4) // 64 tokens
	if err := m.Allocate(3, 10); err != nil {
		t.Fatal(err)
	}
	// A 23-token chunk lands at 33 tokens = 3 blocks.
	if err := m.Extend(3, 23); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 3 || liveSeq(t, m, 3).tokens != 33 {
		t.Errorf("used=%d tokens=%d, want 3/33", m.UsedBlocks(), liveSeq(t, m, 3).tokens)
	}
	if err := m.Extend(3, 0); err == nil {
		t.Error("zero-token extension accepted")
	}
	// Atomic failure: a chunk that overshoots capacity claims nothing.
	if err := m.Extend(3, 32); err == nil {
		t.Error("extension beyond capacity accepted")
	}
	if m.UsedBlocks() != 3 || liveSeq(t, m, 3).tokens != 33 {
		t.Errorf("failed extension mutated state: used=%d tokens=%d", m.UsedBlocks(), liveSeq(t, m, 3).tokens)
	}
	// A chunk that exactly fills the cache succeeds.
	if err := m.Extend(3, 31); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 0 || liveSeq(t, m, 3).tokens != 64 {
		t.Errorf("free=%d tokens=%d, want 0/64", m.FreeBlocks(), liveSeq(t, m, 3).tokens)
	}
	if err := m.Extend(9, 1); err == nil {
		t.Error("extension of unknown sequence accepted")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownSequenceErrors(t *testing.T) {
	m := newTestManager(t, 2)
	if err := m.AppendToken(9); err == nil {
		t.Error("append to unknown sequence accepted")
	}
	if err := m.Free(9); err == nil {
		t.Error("free of unknown sequence accepted")
	}
}

func TestSequences(t *testing.T) {
	m := newTestManager(t, 10)
	for _, id := range []int{5, 1, 3} {
		if err := m.Allocate(id, 8); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.seqs) != 3 {
		t.Fatalf("%d live sequences, want 3", len(m.seqs))
	}
	for _, id := range []int{1, 3, 5} {
		if got := liveSeq(t, m, id).tokens; got != 8 {
			t.Fatalf("Tokens(%d) = %d, want 8", id, got)
		}
	}
}

func TestQuickAllocatorNeverDoubleAllocates(t *testing.T) {
	// Invariant 6 of DESIGN.md under random workloads: allocate,
	// append and free in arbitrary interleavings; invariants hold at
	// every step and capacity is fully restored at the end.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewManager(Config{BlockTokens: 4, TotalBlocks: 64})
		if err != nil {
			return false
		}
		live := map[int]bool{}
		next := 0
		for step := 0; step < 300; step++ {
			switch rng.Intn(3) {
			case 0: // allocate
				id := next
				next++
				if m.Allocate(id, 1+rng.Intn(40)) == nil {
					live[id] = true
				}
			case 1: // append
				for id := range live {
					_ = m.AppendToken(id) // may fail at capacity; fine
					break
				}
			case 2: // free
				for id := range live {
					if m.Free(id) != nil {
						return false
					}
					delete(live, id)
					break
				}
			}
			if m.CheckInvariants() != nil {
				return false
			}
		}
		for id := range live {
			if m.Free(id) != nil {
				return false
			}
		}
		return m.FreeBlocks() == 64 && m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPlanCapacityFig17(t *testing.T) {
	// Figure 17 (LLaMA3.1-8B on RTX4090, 24 GiB): vLLM fits 5.07 GiB
	// of KV next to 14.96 GiB of dense weights; ZipServ's 11.18 GiB
	// resident weights leave 8.60 GiB — a 1.70× KV capacity increase.
	gib := func(g float64) int64 { return int64(g * float64(int64(1)<<30)) }
	vram := gib(24)
	reserved := gib(4) // activations + runtime
	kvPerToken := int64(131072)

	dense, err := PlanCapacity(vram, gib(14.96), reserved, kvPerToken, 16)
	if err != nil {
		t.Fatal(err)
	}
	zip, err := PlanCapacity(vram, gib(11.18), reserved, kvPerToken, 16)
	if err != nil {
		t.Fatal(err)
	}
	gain := float64(zip.KVBytes) / float64(dense.KVBytes)
	if gain < 1.5 || gain > 1.9 {
		t.Errorf("KV capacity gain %.2f, paper 1.70", gain)
	}
	if zip.MaxTokens <= dense.MaxTokens {
		t.Error("compressed weights did not increase token capacity")
	}
	if dense.Blocks != int(dense.MaxTokens)/16 {
		t.Errorf("blocks %d inconsistent with tokens %d", dense.Blocks, dense.MaxTokens)
	}
}

func TestPlanCapacityErrors(t *testing.T) {
	if _, err := PlanCapacity(1<<30, 2<<30, 0, 1024, 16); err == nil {
		t.Error("weights larger than VRAM accepted")
	}
	if _, err := PlanCapacity(1<<30, 0, 0, 0, 16); err == nil {
		t.Error("zero kv-bytes-per-token accepted")
	}
}

func TestCompressedStoreRoundTrip(t *testing.T) {
	// §7 extension: KV blocks compress losslessly with TCA-TBE.
	s := NewCompressedStore()
	kv := weights.Gaussian(16, 1024, 1.0, 3) // activations have σ≈1
	if err := s.Put(0, kv); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !kv.Equal(got) {
		t.Error("KV block not bit-exact after compression")
	}
	if r := s.Ratio(); r < 1.25 {
		t.Errorf("KV compression ratio %.3f < 1.25", r)
	}
}

func TestCompressedStoreAccounting(t *testing.T) {
	s := NewCompressedStore()
	a := weights.Gaussian(16, 512, 1.0, 4)
	b := weights.Gaussian(16, 512, 1.0, 5)
	if err := s.Put(1, a); err != nil {
		t.Fatal(err)
	}
	size1 := s.compBytes
	if err := s.Put(2, b); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.compBytes <= size1 {
		t.Error("second Put did not grow the store")
	}
	// Replacement must not double-count.
	if err := s.Put(1, b); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d after replacement, want 2", s.Len())
	}
	s.Delete(1)
	s.Delete(2)
	if s.Len() != 0 || s.compBytes != 0 {
		t.Errorf("store not empty after deletes: len=%d bytes=%d", s.Len(), s.compBytes)
	}
	if _, err := s.Get(1); err == nil {
		t.Error("Get of deleted block succeeded")
	}
	s.Delete(99) // deleting absent blocks is a no-op
}
