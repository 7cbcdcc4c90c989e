package kvcache

import (
	"errors"
	"fmt"
)

// KV handoff: the transfer half of disaggregated prefill/decode
// serving (docs/disaggregation.md). ExportKV serializes a live
// sequence's block contents through the same TCA-TBE codec that backs
// the compressed cold cache — each block's synthesized KV tensor is
// compressed into the export's payload list, the same payload type a
// frozen trie node holds, so the wire footprint is the measured
// compressed size, not raw KV bytes. ImportKV thaws the export
// bit-exactly into another Manager: prompt blocks are content-addressed
// (the prompt's per-block keys), so a target whose prefix trie already
// advertises them reuses the resident blocks and only the genuinely new
// tail is decompressed from the wire payload.
// Every expanded block is decoded and compared, element by element,
// with its key's generated content before any state is committed, by
// the same round-trip check CheckInvariants applies to every payload a
// trie node holds.
//
// Import is idempotent by construction: a duplicate import of a
// sequence id already present fails with ErrSequenceExists without
// touching state, and a retried import after a failure (or on a
// different replica after the first target died) re-runs the same
// content-addressed claim + expand and lands in the same state.

// ErrSequenceExists reports an import whose sequence id is already
// allocated on the target manager — the duplicate-handoff case.
var ErrSequenceExists = errors.New("kvcache: sequence already allocated")

// KVExport is a serialized sequence: its decode progress in tokens,
// the prompt's content hash (for dedup against the target's trie), one
// content key per block, and the compressed block payloads.
type KVExport struct {
	SeqID       int
	Tokens      int          // sequence length at export (prompt + generated)
	BlockTokens int          // block granularity the keys were derived at
	HP          HashedPrompt // prompt hash; tail blocks carry private keys
	Keys        []string     // one content key per block of the sequence

	payloads             []*storedBlock // payloads[i] encodes Keys[i]'s content
	origBytes, compBytes int64          // byte sums over payloads
}

// CompressedBytes returns the wire footprint of the payload.
func (x *KVExport) CompressedBytes() int64 { return x.compBytes }

// ExportKV serializes a live sequence's KV state. It is read-only: the
// sequence keeps its allocation, and the caller decides separately
// whether to Free it (the normal handoff) or keep serving it (an
// aborted handoff) — which is what makes a re-export after a failed
// transfer safe.
//
// Prompt blocks are keyed by the prompt's content keys so the importer
// can deduplicate them against its trie; blocks holding generated
// tokens get private keys (no cross-request sharing exists for them).
func (m *Manager) ExportKV(seqID int, hp HashedPrompt) (*KVExport, error) {
	st, ok := m.seqs[seqID]
	if !ok {
		return nil, fmt.Errorf("kvcache: unknown sequence %d", seqID)
	}
	b := m.cfg.BlockTokens
	keys := make([]string, len(st.table))
	for i := range keys {
		if i < len(hp.keys) && (i+1)*b <= st.tokens {
			keys[i] = hp.keys[i]
		} else {
			fill := st.tokens - i*b
			if fill > b {
				fill = b
			}
			keys[i] = fmt.Sprintf("handoff/%d/%d/%d", seqID, i, fill)
		}
	}
	x := &KVExport{
		SeqID: seqID, Tokens: st.tokens, BlockTokens: b,
		HP: hp, Keys: keys, payloads: make([]*storedBlock, len(keys)),
	}
	for i, key := range keys {
		sb, err := encode(m.synthesize(key))
		if err != nil {
			return nil, fmt.Errorf("kvcache: compressing sequence %d block %d: %w", seqID, i, err)
		}
		x.payloads[i] = sb
		x.origBytes += sb.origSize
		x.compBytes += sb.compSize()
	}
	return x, nil
}

// ImportStats reports what an import physically did, so the engine can
// price the decompression and reconcile its block reservations.
type ImportStats struct {
	// ReusedTokens is the prompt prefix supplied by the target's own
	// trie — blocks the wire payload did not need to expand.
	ReusedTokens int
	// ExpandedBlocks is the number of blocks decompressed from the
	// wire payload into freshly claimed physical blocks.
	ExpandedBlocks int
	// Thawed is the number of the target's own frozen blocks restored
	// by the dedup claim (local decompressions, not wire ones).
	Thawed int
	// GrowPops is the number of physical blocks claimed by the
	// allocation growth after the dedup claim (including any
	// copy-on-write of a shared tail block).
	GrowPops int
}

// ImportKV thaws an export into this manager, deduplicating prompt
// blocks against the prefix trie. Wire-expanded blocks are verified
// bit-for-bit against the content their keys generate before any
// allocation is committed; on any failure the claim is rolled back and
// the manager is unchanged. A sequence id already present fails with
// ErrSequenceExists (duplicate handoff). After a successful import the
// prompt's blocks are committed to the trie, so later requests sharing
// the prefix (and retried imports after a Free) hit them.
func (m *Manager) ImportKV(exp *KVExport) (ImportStats, error) {
	var stats ImportStats
	if _, dup := m.seqs[exp.SeqID]; dup {
		return stats, fmt.Errorf("%w: import of sequence %d", ErrSequenceExists, exp.SeqID)
	}
	if exp.BlockTokens != m.cfg.BlockTokens {
		return stats, fmt.Errorf("kvcache: import of sequence %d at block granularity %d into a %d-token manager",
			exp.SeqID, exp.BlockTokens, m.cfg.BlockTokens)
	}
	if exp.Tokens <= 0 || len(exp.Keys) != BlocksFor(exp.Tokens, m.cfg.BlockTokens) ||
		len(exp.payloads) != len(exp.Keys) {
		return stats, fmt.Errorf("kvcache: malformed import of sequence %d: %d blocks, %d payloads for %d tokens",
			exp.SeqID, len(exp.Keys), len(exp.payloads), exp.Tokens)
	}

	// Dedup: claim whatever prompt prefix this manager already holds.
	// A zero-token match claims nothing and creates no sequence state.
	matched := 0
	thawsBefore := m.decompClaims
	if m.prefixOn && len(exp.HP.keys) > 0 {
		var err error
		if matched, err = m.ClaimPrefixHashed(exp.SeqID, exp.HP); err != nil {
			return stats, fmt.Errorf("kvcache: import claim for sequence %d: %w", exp.SeqID, err)
		}
	}
	stats.ReusedTokens = matched
	stats.Thawed = int(m.decompClaims - thawsBefore)
	supplied := 0
	if st := m.seqs[exp.SeqID]; st != nil {
		supplied = len(st.table)
	}
	rollback := func() {
		if _, claimed := m.seqs[exp.SeqID]; claimed {
			m.Free(exp.SeqID)
		}
	}

	// Verify the wire payload for every block the claim did not supply
	// before committing any allocation: each must decompress to exactly
	// the content its key addresses.
	for i := supplied; i < len(exp.Keys); i++ {
		if err := exp.payloads[i].verify(exp.Keys[i], m.scratchBlock()); err != nil {
			rollback()
			return stats, fmt.Errorf("kvcache: import of sequence %d block %d: %w", exp.SeqID, i, err)
		}
	}
	stats.ExpandedBlocks = len(exp.Keys) - supplied

	// Grow the claimed prefix (or allocate from scratch) to the full
	// exported length. Claim-held blocks cover matched tokens; the
	// growth funds everything else, including a copy-on-write of a
	// shared partially filled tail block.
	popsBefore := m.pops
	if matched > 0 {
		if err := m.Extend(exp.SeqID, exp.Tokens-matched); err != nil {
			rollback()
			return stats, fmt.Errorf("kvcache: import of sequence %d: %w", exp.SeqID, err)
		}
	} else if err := m.Allocate(exp.SeqID, exp.Tokens); err != nil {
		return stats, fmt.Errorf("kvcache: import of sequence %d: %w", exp.SeqID, err)
	}
	stats.GrowPops = int(m.pops - popsBefore)

	// Advertise the prompt's blocks on this trie, so sibling requests
	// (and a retried import, if this sequence is later freed) dedup
	// against them.
	if err := m.CommitPrefixHashed(exp.SeqID, exp.HP, exp.HP.Len()); err != nil {
		rollback()
		return stats, fmt.Errorf("kvcache: import commit for sequence %d: %w", exp.SeqID, err)
	}
	return stats, nil
}
