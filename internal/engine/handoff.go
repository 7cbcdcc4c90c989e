package engine

import (
	"errors"
	"fmt"

	"zipserv/internal/gpu"
	"zipserv/internal/kvcache"
)

// Sequence handoff: the engine half of disaggregated prefill/decode
// serving (docs/disaggregation.md). A prefill replica runs a prompt to
// its first token, ExportSequence serializes the mid-generation
// sequence — request, metrics, decode progress, and the KV blocks
// compressed through the TCA-TBE codec — and a decode replica's
// ImportSequence lands it in that stepper's active batch, deduplicating
// prompt blocks against the target's prefix trie and paying the
// transfer and decompression price on its virtual clock.

// Handoff failure sentinels, distinguishable with errors.Is so a
// router can pick the right recovery: a duplicate import is already
// served (drop the retry), a capacity rejection wants a different
// target or a later retry.
var (
	// ErrSequenceInFlight reports an import whose sequence id is
	// already admitted or decoding on this stepper.
	ErrSequenceInFlight = errors.New("engine: sequence already in flight")
	// ErrImportNoCapacity reports an import that does not fit in the
	// target's free KV capacity.
	ErrImportNoCapacity = errors.New("engine: import does not fit in free KV capacity")
)

// SequenceExport is a mid-generation sequence serialized for transfer
// to another replica: everything a fresh Stepper needs to continue the
// decode exactly where the exporter stopped.
type SequenceExport struct {
	Req       Request
	Metrics   RequestMetrics // arrival/admission/first-token timestamps travel with the sequence
	Remaining int            // output tokens still to produce
	Ctx       int            // context length at export
	KV        *kvcache.KVExport

	// ExportedAt is the exporter's virtual clock at serialization;
	// TransferSeconds the priced interconnect time. The import lands no
	// earlier than their sum.
	ExportedAt      float64
	TransferSeconds float64
}

// CompressedBytes returns the wire footprint of the KV payload.
func (x *SequenceExport) CompressedBytes() int64 { return x.KV.CompressedBytes() }

// KVTransferTime prices moving a compressed KV payload of the given
// size between replicas over the inter-GPU interconnect (NVLink when
// the device has it, PCIe otherwise), plus the fixed cost of the
// send/receive kernel pair. Compression is what makes this cheap: the
// wire carries the codec's measured compressed bytes, not raw KV.
func (e *Engine) KVTransferTime(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes)/(e.cfg.Device.InterconnectGBps()*1e9) + 2*gpu.LaunchOverhead
}

// ExportSequence serializes an actively decoding sequence for handoff
// and releases it from this stepper: the sequence leaves the decode
// batch, its KV blocks are freed (prompt blocks stay advertised by the
// prefix trie, so a sibling request — or a failed handoff re-imported
// here — still reuses them), and its emitted-token counts stay put,
// because the tokens were really produced here. Contrast Preempt,
// which discards and recomputes.
func (s *Stepper) ExportSequence(id int) (*SequenceExport, error) {
	for i, q := range s.active {
		if q.req.ID != id {
			continue
		}
		kv, err := s.mgr.ExportKV(id, q.hp)
		if err != nil {
			return nil, fmt.Errorf("engine: exporting sequence %d: %w", id, err)
		}
		exp := &SequenceExport{
			Req:             q.req,
			Metrics:         q.m,
			Remaining:       q.remaining,
			Ctx:             q.ctx,
			KV:              kv,
			ExportedAt:      s.now,
			TransferSeconds: s.e.KVTransferTime(kv.CompressedBytes()),
		}
		s.active = append(s.active[:i], s.active[i+1:]...)
		if err := s.release(q); err != nil {
			// Unreachable: an active sequence owns an allocation.
			panic(fmt.Sprintf("engine: exporting sequence %d: %v", id, err))
		}
		return exp, nil
	}
	return nil, fmt.Errorf("engine: sequence %d is not decoding", id)
}

// ImportSequence lands an exported sequence in this stepper's decode
// batch. The import is charged like a real arrival: the clock advances
// to the export time plus the transfer, the expanded and thawed blocks
// pay the decompress price, and the request's remaining footprint is
// reserved so the sequence can never fail mid-flight. Prompt blocks
// the target's trie already holds are deduplicated by the
// content-addressed claim instead of expanded from the wire.
//
// A sequence id already in flight fails with ErrSequenceInFlight and
// an import that does not fit with ErrImportNoCapacity, both leaving
// the stepper unchanged — so a router can retry elsewhere or detect a
// duplicate handoff, and a crashed target can be retried on any
// replica (the import is idempotent and content-addressed).
func (s *Stepper) ImportSequence(exp *SequenceExport) error {
	id := exp.Req.ID
	for _, q := range s.active {
		if q.req.ID == id {
			return fmt.Errorf("%w: %d", ErrSequenceInFlight, id)
		}
	}
	for _, q := range s.admitted {
		if q.req.ID == id {
			return fmt.Errorf("%w: %d", ErrSequenceInFlight, id)
		}
	}
	matched, resurrect := s.lookupCost(exp.Req)
	if !s.fits(exp.Req, matched, resurrect) {
		return fmt.Errorf("%w: sequence %d (%d tokens)", ErrImportNoCapacity, id,
			exp.Req.PromptLen+exp.Req.OutputLen)
	}
	res := s.reservationFor(exp.Req, matched)
	stats, err := s.mgr.ImportKV(exp.KV)
	if err != nil {
		if errors.Is(err, kvcache.ErrSequenceExists) {
			return fmt.Errorf("%w: %d", ErrSequenceInFlight, id)
		}
		return fmt.Errorf("engine: importing sequence %d: %w", id, err)
	}
	res -= stats.GrowPops
	if res < 0 {
		// Unreachable: the exported length never exceeds the reserved
		// prompt+output footprint.
		panic(fmt.Sprintf("engine: import of sequence %d claimed %d blocks past its reservation", id, -res))
	}
	s.reserved += res

	// The sequence lands once the transfer completes, then pays for
	// expanding the wire blocks (and thawing any of the target's own
	// frozen blocks the dedup claim touched). The cost folds into the
	// step-time EWMA with the next decode step, like a prefill chunk,
	// and a scripted slowdown dilates it like one.
	s.AdvanceTo(exp.ExportedAt + exp.TransferSeconds)
	if cost := s.e.KVDecompressTime(stats.ExpandedBlocks + stats.Thawed); cost > 0 {
		if s.TimeDilation != nil {
			cost *= s.TimeDilation(s.now)
		}
		s.now += cost
		s.lastPrefillElapsed += cost
	}

	q := seqPool.Get().(*sequence)
	*q = sequence{
		req:       exp.Req,
		hp:        exp.KV.HP,
		m:         exp.Metrics,
		remaining: exp.Remaining,
		ctx:       exp.Ctx,
		prefilled: exp.Req.PromptLen,
		reserved:  res,
	}
	s.join(q)
	return nil
}
