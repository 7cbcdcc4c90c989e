package engine

import (
	"fmt"
	"sync"

	"zipserv/internal/kvcache"
)

// Stepper is the iteration-granular continuous-batching state machine
// (vLLM-style scheduling, §6.5) factored out of the offline Serve loop
// so that a live scheduler can drive it one step at a time: admit
// requests against the paged KV plan, prefill newcomers, run one
// decode step over the running batch, evict finished sequences. The
// offline Serve trace replay and the live internal/serve loop are both
// thin drivers over this type.
//
// Prefill is chunkable (Sarathi-style): with a positive
// PrefillChunkTokens budget, each Prefill call mixes at most that many
// pending prompt tokens into the iteration, carrying partially
// prefilled sequences across iterations so one long prompt can never
// monopolise the loop and stall the decode batch's token cadence. With
// EnableAdaptiveChunking the budget is no longer a constant: a
// closed-loop controller re-derives it every iteration from the decode
// batch's step-time target by inverting the cost model (see
// adaptive.go).
//
// Time is virtual: the Stepper advances its clock by the engine cost
// model's step durations. Admission is conservative — a request is
// admitted only when its full prompt+output KV reservation fits — so
// no sequence can fail mid-flight. KV blocks are claimed lazily as
// prefill chunks (and then decode tokens) actually consume them; the
// reservation covers everything not yet claimed.
//
// The Stepper runs once per emitted token, so its bookkeeping is
// allocation-lean: sequence states and per-iteration scratch (chunk
// lists, metric buffers) come from sync.Pools shared across Stepper
// instances, prompt block hashes are computed once per request, the
// admission capacity lookup is memoized per (request, trie
// generation) so CanAdmitRequest followed by Admit walks the prefix
// trie once, not twice, and the weight-GEMM prices come from a table
// filled on first use, so the kernel model runs once per token count.
//
// A Stepper is not safe for concurrent use; callers serialise
// scheduling decisions, as vLLM's engine loop does.
type Stepper struct {
	// PackedPrefill selects padding-free token-packed prefill pricing
	// (PackedPrefillTime) instead of the legacy request-level padded
	// batch prefill (PrefillTime). The live scheduler sets it; the
	// offline Serve path keeps the padded baseline.
	PackedPrefill bool

	// PrefillChunkTokens caps the prompt tokens one Prefill call may
	// process (0 = monolithic: every admitted prompt prefills in one
	// batch). Chunked prefill is always priced token-packed
	// (ChunkedPrefillTime), regardless of PackedPrefill: a chunk budget
	// only makes sense for a varlen kernel. Ignored while adaptive
	// chunking is enabled.
	PrefillChunkTokens int

	// DecodeFree declares that an empty decode batch is this stepper's
	// steady state — a dedicated prefill-pool replica — rather than
	// transient idleness. The adaptive chunk controller then solves its
	// budget against the full TargetStepTime when no sequence is
	// decoding, instead of growing toward the ceiling; see adaptive.go.
	DecodeFree bool

	// TimeDilation, when set, multiplies every iteration's virtual
	// elapsed time by its return value, evaluated at the iteration's
	// start clock. The fault-injection layer (serve fault plans,
	// docs/robustness.md) uses it to script step-time slowdowns as a
	// pure function of virtual time, so slow-replica chaos runs replay
	// bit-identically. Must return a finite value >= some positive
	// epsilon; 1 means full speed.
	TimeDilation func(now float64) float64

	e   *Engine
	mgr *kvcache.Manager

	// gemm memoizes the weight-GEMM terms every decode step, prefill
	// iteration and controller probe prices: pure in the token count,
	// so each is priced once per stepper, on first use.
	gemm gemmTable

	chunkCtl *chunkController // nil = static chunk budget

	// pendingDecompress counts frozen prefix blocks restored by
	// admissions since the last Prefill call; the next prefill iteration
	// charges their decompress time so TTFT pays the compressed cache's
	// real price.
	pendingDecompress int

	memo lookupMemo // admission lookup memo (see lookupCost)

	// Admission-epoch signals for the cache-sizing controller: reset by
	// AdaptEpoch once per scheduler iteration.
	epochAdmissions int
	epochHits       int
	epochBlocked    bool

	now      float64
	admitted []*sequence // admitted, prefilling (possibly mid-chunk)
	active   []*sequence // prefilled, decoding
	reserved int         // blocks reserved beyond those allocated

	outputTokens int64
	decodeSteps  int64
	peak         int

	prefillIters  int64
	prefillTokens int64
	lastDecodeEnd float64 // end of the previous decode step; -1 until a fresh batch's first step
	maxDecodeGap  float64

	lastPrefillElapsed float64 // virtual cost of the preceding Prefill call
	stepEWMA           float64 // smoothed combined prefill+decode iteration time

	sc *stepScratch
}

type sequence struct {
	req       Request
	hp        kvcache.HashedPrompt // precomputed block keys (prefix mode)
	m         RequestMetrics
	remaining int // output tokens still to produce
	ctx       int // context length once prefilled (prompt, then +1 per decode)
	prefilled int // prompt tokens prefilled so far (cached prefix + chunk progress)
	reserved  int // blocks reserved beyond those allocated
}

// lookupMemo caches the most recent prefix-cache admission lookup. The
// admission path probes the same request twice back to back
// (CanAdmitRequest, then Admit); as long as the allocator's trie
// generation is unchanged the memoized match is exact, so the second
// trie walk — and every per-block content hash behind it — is skipped.
// The precomputed prompt hash is keyed by request id alone: block keys
// depend only on token content, which is immutable per request.
type lookupMemo struct {
	valid              bool
	id                 int
	gen                int64
	matched, resurrect int
	hp                 kvcache.HashedPrompt
}

// seqPool recycles sequence bookkeeping across requests and Stepper
// instances: a steady-state serving loop admits and retires sequences
// without allocating.
var seqPool = sync.Pool{New: func() any { return new(sequence) }}

func putSeq(q *sequence) {
	*q = sequence{}
	seqPool.Put(q)
}

// stepScratch holds one Stepper's per-iteration buffers: the carved
// chunk list, the adaptive controller's probe carves, and the metric
// slices Prefill and DecodeStep return. Pooled so per-trace Steppers
// (benchmarks, compare runs) reuse each other's backing arrays.
type stepScratch struct {
	chunks []PrefillChunk
	probe  []PrefillChunk
	out    []RequestMetrics
	fin    []RequestMetrics
}

var scratchPool = sync.Pool{New: func() any { return new(stepScratch) }}

func (s *Stepper) scratch() *stepScratch {
	if s.sc == nil {
		s.sc = scratchPool.Get().(*stepScratch)
	}
	return s.sc
}

// NewStepper builds a stepper over the engine's KV-cache plan with an
// empty batch and the virtual clock at zero.
func NewStepper(e *Engine) (*Stepper, error) {
	mgr, err := kvcache.NewManager(kvcache.Config{
		BlockTokens: kvcache.DefaultBlockTokens,
		TotalBlocks: e.plan.Blocks,
	})
	if err != nil {
		return nil, err
	}
	return &Stepper{e: e, mgr: mgr}, nil
}

// Clock returns the stepper's virtual time in seconds.
func (s *Stepper) Clock() float64 { return s.now }

// AdvanceTo moves the virtual clock forward to t (idle fast-forward to
// the next arrival). Moving backwards is a no-op.
func (s *Stepper) AdvanceTo(t float64) {
	if t > s.now {
		s.now = t
	}
}

// ActiveCount returns the number of sequences in the decoding batch.
func (s *Stepper) ActiveCount() int { return len(s.active) }

// InFlight returns all sequences holding KV capacity (admitted or
// decoding).
func (s *Stepper) InFlight() int { return len(s.admitted) + len(s.active) }

// OutputTokens returns the total tokens emitted so far.
func (s *Stepper) OutputTokens() int64 { return s.outputTokens }

// DecodeSteps returns the number of decode iterations run so far.
func (s *Stepper) DecodeSteps() int64 { return s.decodeSteps }

// PeakConcurrency returns the largest decoding batch seen so far.
func (s *Stepper) PeakConcurrency() int { return s.peak }

// PrefillIterations returns the number of Prefill calls that processed
// at least one prompt chunk.
func (s *Stepper) PrefillIterations() int64 { return s.prefillIters }

// PrefillTokens returns the total prompt tokens prefilled so far
// (across all chunks; first output tokens are not counted).
func (s *Stepper) PrefillTokens() int64 { return s.prefillTokens }

// MaxDecodeGap returns the longest virtual-time gap between two
// consecutive decode steps observed while the decode batch stayed
// non-empty — the worst token-cadence stall a decoding sequence has
// seen, typically inflated by a long prefill wedged between steps.
// Gaps across an empty batch (idle stretches) do not count.
func (s *Stepper) MaxDecodeGap() float64 { return s.maxDecodeGap }

// StepTimeEWMA returns the smoothed combined prefill+decode time of
// recent scheduler iterations (prefill-only iterations against an
// empty decode batch count as their own samples) — the signal the
// adaptive chunk controller is holding under its target. 0 before the
// first iteration completes.
func (s *Stepper) StepTimeEWMA() float64 { return s.stepEWMA }

// observeStepTime folds one completed iteration into the EWMA, seeding
// it with the first sample.
func (s *Stepper) observeStepTime(iter float64) {
	if s.stepEWMA == 0 {
		s.stepEWMA = iter
		return
	}
	s.stepEWMA = stepEWMAAlpha*iter + (1-stepEWMAAlpha)*s.stepEWMA
}

// EnablePrefixCache turns on cross-request KV prefix reuse for
// requests that carry prompt tokens: admission claims content-matched
// prefix blocks by bumping refcounts instead of allocating, and
// prefill starts at the first uncached position. capBlocks bounds the
// refcount-zero blocks kept parked for reuse (0 = unbounded). Must be
// called before the first admission.
func (s *Stepper) EnablePrefixCache(capBlocks int) error {
	if err := s.mgr.EnablePrefixCache(capBlocks); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// PrefixCacheEnabled reports whether cross-request prefix reuse is on.
func (s *Stepper) PrefixCacheEnabled() bool { return s.mgr.PrefixCacheEnabled() }

// EnableCompressedCache stores cold (refcount-zero) prefix-cache
// blocks in TCA-TBE compressed form instead of parking them as
// physical blocks: the physical block returns to the free list
// immediately and a later claim of the content decompresses into a
// fresh block, priced into that prefill iteration by KVDecompressTime.
// Requires the prefix cache.
func (s *Stepper) EnableCompressedCache() error {
	if err := s.mgr.EnableCompressedCache(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// CompressedCacheEnabled reports whether cold prefix blocks are stored
// compressed.
func (s *Stepper) CompressedCacheEnabled() bool { return s.mgr.CompressedCacheEnabled() }

// CompressedKVBlocks returns the cold blocks currently held in
// compressed form (advertised by the trie, holding no physical block).
func (s *Stepper) CompressedKVBlocks() int { return s.mgr.CompressedBlocks() }

// CompressedKVBytes returns the compressed footprint of those blocks.
func (s *Stepper) CompressedKVBytes() int64 { return s.mgr.CompressedKVBytes() }

// KVCompressionRatio returns the measured aggregate compression ratio
// of the cold blocks (1.0 while none are frozen; 0 when the compressed
// cache is off).
func (s *Stepper) KVCompressionRatio() float64 { return s.mgr.CompressionRatio() }

// DecompressClaims returns the lifetime count of frozen blocks
// restored into physical blocks by prefix claims.
func (s *Stepper) DecompressClaims() int64 { return s.mgr.DecompressClaims() }

// SetCodecFault installs a KV-codec fault predicate on the cache
// manager: while it returns true, cold prefix blocks degrade to plain
// physical parking instead of freezing compressed (the graceful path —
// capacity is lost, correctness is not). The fault-injection layer
// drives it from a fault plan evaluated on virtual time; each degraded
// freeze counts into CodecFallbacks.
func (s *Stepper) SetCodecFault(fn func() bool) { s.mgr.SetCodecFault(fn) }

// CodecFallbacks returns the lifetime count of cold-block freezes that
// degraded to plain parking because the KV codec failed (injected or
// real).
func (s *Stepper) CodecFallbacks() int64 { return s.mgr.CodecFallbacks() }

// EnableAdaptivePrefixCache replaces the static cached-pool bound with
// the closed-loop sizing controller in internal/kvcache: the pool
// shrinks (evicting leaf-first) while admissions queue on KV capacity
// and grows while prefix hits keep arriving. minBlocks/maxBlocks bound
// the pool (0 = defaults: 1 and the whole plan). The serve loop drives
// the controller by calling AdaptEpoch once per iteration. Requires the
// prefix cache.
func (s *Stepper) EnableAdaptivePrefixCache(minBlocks, maxBlocks int) error {
	if err := s.mgr.EnableAdaptivePrefixCache(minBlocks, maxBlocks); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// AdaptivePrefixCache reports whether closed-loop pool sizing is on.
func (s *Stepper) AdaptivePrefixCache() bool { return s.mgr.AdaptivePrefixCache() }

// AdaptEpoch closes one admission epoch: the cache-sizing controller
// consumes the epoch's admission outcomes (prompt-carrying admissions,
// prefix hits, whether any admission queued on capacity) and resizes
// the cached pool. The live scheduler calls it once per loop
// iteration; a no-op unless EnableAdaptivePrefixCache is on.
func (s *Stepper) AdaptEpoch() {
	s.mgr.AdaptCacheEpoch(s.epochAdmissions, s.epochHits, s.epochBlocked)
	s.epochAdmissions, s.epochHits, s.epochBlocked = 0, 0, false
}

// CachePoolTarget returns the cached-pool bound currently in force
// (static configuration or the sizing controller's latest target;
// 0 = unbounded).
func (s *Stepper) CachePoolTarget() int { return s.mgr.CachePoolTarget() }

// CacheHitRateEWMA returns the sizing controller's smoothed admission
// hit rate (0 when adaptive sizing is off).
func (s *Stepper) CacheHitRateEWMA() float64 { return s.mgr.CacheHitRateEWMA() }

// CachePressureEWMA returns the sizing controller's smoothed
// capacity-pressure signal (0 when adaptive sizing is off).
func (s *Stepper) CachePressureEWMA() float64 { return s.mgr.CachePressureEWMA() }

// PrefixHits returns the number of admissions that reused at least one
// cached prefix block.
func (s *Stepper) PrefixHits() int64 { return s.mgr.PrefixHits() }

// PrefixSummary returns the memoized digest of the replica's prefix
// trie for affinity routing (nil when prefix caching is off); see
// kvcache.PrefixSummary.
func (s *Stepper) PrefixSummary() *kvcache.PrefixSummary { return s.mgr.PrefixSummary() }

// PrefixTokensSaved returns the total prompt tokens served from the
// prefix cache instead of being re-prefilled.
func (s *Stepper) PrefixTokensSaved() int64 { return s.mgr.PrefixTokensSaved() }

// CachedKVBlocks returns the refcount-zero blocks parked in the prefix
// cache (free capacity that is also warm prefix content).
func (s *Stepper) CachedKVBlocks() int { return s.mgr.CachedBlocks() }

// SharedKVBlocks returns the physical blocks referenced by more than
// one in-flight sequence — capacity deduplication is saving right now.
// A replica router should score load by uniquely-owned blocks, which
// FreeBlocks already reflects: shared blocks are counted once.
func (s *Stepper) SharedKVBlocks() int { return s.mgr.SharedBlocks() }

// reservationFor returns the blocks to reserve for a request: its full
// prompt+output footprint minus the whole blocks a cached prefix match
// supplies by reference. A partially consumed tail match is not
// discounted — its copy-on-write replacement costs one fresh block, so
// only ⌊matched/block⌋ blocks are truly free capacity.
func (s *Stepper) reservationFor(r Request, matched int) int {
	return kvcache.BlocksFor(r.PromptLen+r.OutputLen, kvcache.DefaultBlockTokens) -
		matched/kvcache.DefaultBlockTokens
}

// lookupCost returns the cached-prefix match plus how many matched
// blocks would be resurrected from the refcount-zero cached pool —
// blocks FreeBlocks counts as free capacity, so admission must charge
// them like fresh allocations (crediting them twice would over-admit
// and leave the reservation physically unbacked). The result is
// memoized per (request id, allocator generation): the usual
// CanAdmitRequest → Admit pair walks the trie once. Request ids must
// be unique among concurrently probed requests, which the schedulers
// guarantee.
func (s *Stepper) lookupCost(r Request) (matched, resurrect int) {
	if !s.mgr.PrefixCacheEnabled() || len(r.Prompt) == 0 {
		return 0, 0
	}
	gen := s.mgr.Generation()
	if s.memo.valid && s.memo.id == r.ID {
		if s.memo.gen == gen {
			return s.memo.matched, s.memo.resurrect
		}
	} else {
		// Block content keys depend only on the tokens: hash them once
		// per request, then every re-probe under a new generation
		// re-walks the trie without hashing.
		s.memo = lookupMemo{valid: true, id: r.ID, hp: s.mgr.HashPrompt(r.Prompt)}
	}
	s.memo.gen = gen
	s.memo.matched, s.memo.resurrect = s.mgr.LookupCostHashed(s.memo.hp)
	return s.memo.matched, s.memo.resurrect
}

// fits reports whether a request with the given prefix match can be
// granted capacity right now: either its full uncredited footprint
// fits (sharing can then only help), or the uncached reservation plus
// the cached-pool resurrections fit. The resurrect charge is what
// keeps every outstanding reservation backed by physical blocks. A
// request FitsKV refuses never fits: its block count may have wrapped.
func (s *Stepper) fits(r Request, matched, resurrect int) bool {
	if !s.e.FitsKV(r.PromptLen, r.OutputLen) {
		return false
	}
	free := s.mgr.FreeBlocks() - s.reserved
	if kvcache.BlocksFor(r.PromptLen+r.OutputLen, kvcache.DefaultBlockTokens) <= free {
		return true
	}
	return s.reservationFor(r, matched)+resurrect <= free
}

// CanAdmit reports whether a prompt+output reservation of the given
// lengths fits in the KV blocks that are currently free and
// unreserved. It assumes no prefix reuse; CanAdmitRequest also credits
// a request's cached-prefix match.
func (s *Stepper) CanAdmit(promptLen, outputLen int) bool {
	if !s.e.FitsKV(promptLen, outputLen) {
		return false
	}
	need := kvcache.BlocksFor(promptLen+outputLen, kvcache.DefaultBlockTokens)
	return need <= s.mgr.FreeBlocks()-s.reserved
}

// CanAdmitRequest reports whether the request fits in the free and
// unreserved KV blocks, after crediting the prefix-cache blocks its
// prompt tokens already match (matches resurrected from the cached
// pool are charged, not credited — they consume free capacity). The
// trie walk runs only when the full uncredited footprint does not
// already fit, and its result is memoized for the Admit that follows.
// A false result is recorded as capacity pressure for the cache-sizing
// controller's current admission epoch.
func (s *Stepper) CanAdmitRequest(r Request) bool {
	if s.CanAdmit(r.PromptLen, r.OutputLen) {
		return true
	}
	matched, resurrect := s.lookupCost(r)
	if s.fits(r, matched, resurrect) {
		return true
	}
	s.epochBlocked = true
	return false
}

// CachedTokensOf returns how many prompt tokens an in-flight sequence
// was served from the prefix cache (0 if the id is unknown). The
// scheduler annotates its admitted event with this instead of
// re-walking the trie; the sequence just admitted is at the back of
// the prefill queue, so the reverse scan finds it first.
func (s *Stepper) CachedTokensOf(id int) int {
	for i := len(s.admitted) - 1; i >= 0; i-- {
		if s.admitted[i].req.ID == id {
			return s.admitted[i].m.CachedTokens
		}
	}
	for _, q := range s.active {
		if q.req.ID == id {
			return q.m.CachedTokens
		}
	}
	return 0
}

// Admit grants the request KV capacity: every block of its full
// prompt+output footprint is either reserved up front or claimed from
// the prefix cache by reference, so the sequence can never fail
// mid-flight; the reserved blocks are claimed lazily as prefill chunks
// and decode tokens consume them. With a prefix-cache match, prefill
// starts at the first uncached position. The request joins the prefill
// queue; its Admitted timestamp is the current virtual clock.
func (s *Stepper) Admit(r Request) error {
	if r.PromptLen <= 0 || r.OutputLen <= 0 {
		return fmt.Errorf("engine: request %d invalid (%+v)", r.ID, r)
	}
	if len(r.Prompt) > 0 && len(r.Prompt) != r.PromptLen {
		return fmt.Errorf("engine: request %d carries %d prompt tokens but PromptLen %d",
			r.ID, len(r.Prompt), r.PromptLen)
	}
	matched, resurrect := s.lookupCost(r)
	if !s.fits(r, matched, resurrect) {
		return fmt.Errorf("engine: request %d (%d+%d tokens) does not fit in free KV capacity",
			r.ID, r.PromptLen, r.OutputLen)
	}
	res := s.reservationFor(r, matched)
	var hp kvcache.HashedPrompt
	if s.mgr.PrefixCacheEnabled() && len(r.Prompt) > 0 {
		hp = s.memo.hp // lookupCost populated it for this request
		s.epochAdmissions++
	}
	if matched > 0 {
		dc := s.mgr.DecompressClaims()
		claimed, err := s.mgr.ClaimPrefixHashed(r.ID, hp)
		if err != nil {
			return fmt.Errorf("engine: request %d prefix claim: %w", r.ID, err)
		}
		matched = claimed // the walk is deterministic; claimed == matched
		s.epochHits++
		// Frozen blocks the claim thawed owe their decompress time; the
		// next prefill iteration pays it.
		s.pendingDecompress += int(s.mgr.DecompressClaims() - dc)
	}
	s.reserved += res
	q := seqPool.Get().(*sequence)
	*q = sequence{
		req:       r,
		hp:        hp,
		m:         RequestMetrics{ID: r.ID, Arrival: r.ArrivalSeconds, Admitted: s.now, CachedTokens: matched},
		remaining: r.OutputLen,
		ctx:       r.PromptLen,
		prefilled: matched,
		reserved:  res,
	}
	s.admitted = append(s.admitted, q)
	return nil
}

// FreeBlocks returns the KV blocks currently free and unreserved — the
// admission headroom a scheduling policy or replica router sees.
// Clamped at zero: a fast-path admission of an exactly fitting, fully
// cached prompt can leave the reservation one block ahead of the
// reclaimable pool until its first copy-on-write release returns the
// shared tail (no physical shortfall — the COW pop and release happen
// in the same Extend), and a negative gauge would skew router ranking.
func (s *Stepper) FreeBlocks() int {
	if free := s.mgr.FreeBlocks() - s.reserved; free > 0 {
		return free
	}
	return 0
}

// Preempt evicts the in-flight sequence with the given id, releasing
// every KV block it holds (allocated and reserved) and discounting the
// tokens it already emitted, so that the capacity can fund a more
// urgent admission. A partially prefilled victim's chunk progress is
// discarded with its blocks. It returns the sequence's original
// Request, which the caller requeues: on re-admission the sequence
// restarts from scratch (prefill and all output tokens are
// recomputed), exactly the preempt-and-recompute discipline vLLM
// applies under memory pressure. The second result is false when no
// in-flight sequence has that id.
func (s *Stepper) Preempt(id int) (Request, bool) {
	for _, batch := range [...]*[]*sequence{&s.admitted, &s.active} {
		for i, q := range *batch {
			if q.req.ID != id {
				continue
			}
			*batch = append((*batch)[:i], (*batch)[i+1:]...)
			// OutputTokens counts useful tokens only; a preempted
			// sequence's partial output is recomputed after re-admission.
			s.outputTokens -= int64(q.req.OutputLen - q.remaining)
			req := q.req
			if err := s.release(q); err != nil {
				// Unreachable: a sequence with chunk progress owns an allocation.
				panic(fmt.Sprintf("engine: preempting request %d: %v", id, err))
			}
			return req, true
		}
	}
	return Request{}, false
}

// join adds a sequence to the decode batch, the one way in for
// Prefill and ImportSequence. Joining an empty batch restarts the
// cadence clock: the gap since the previous batch's last step is idle
// time, not a stall, however that batch emptied.
func (s *Stepper) join(q *sequence) {
	if len(s.active) == 0 {
		s.lastDecodeEnd = -1
	}
	s.active = append(s.active, q)
	s.peak = max(s.peak, len(s.active))
}

// release is the one way out for a sequence its caller has already
// taken out of its batch (finished, preempted or exported): it returns
// the unclaimed reservation, then the block allocation, then the
// bookkeeping to the pool. Copy out anything still needed first.
func (s *Stepper) release(q *sequence) error {
	s.reserved -= q.reserved
	if q.prefilled > 0 { // no chunk progress means no allocation yet
		if err := s.mgr.Free(q.req.ID); err != nil {
			return fmt.Errorf("engine: releasing request %d: %w", q.req.ID, err)
		}
	}
	putSeq(q)
	return nil
}

// carve slices this iteration's prefill chunks off the admitted queue
// in admission order, appending to dst: chunk i belongs to
// s.admitted[i]. A non-positive budget carves every pending prompt
// whole (monolithic prefill).
func (s *Stepper) carve(budget int, dst []PrefillChunk) []PrefillChunk {
	chunked := budget > 0
	for _, q := range s.admitted {
		if chunked && budget <= 0 {
			break
		}
		c := q.req.PromptLen - q.prefilled
		if chunked && c > budget {
			c = budget
		}
		dst = append(dst, PrefillChunk{
			Start:  q.prefilled,
			Tokens: c,
			Final:  q.prefilled+c == q.req.PromptLen,
		})
		if chunked {
			budget -= c
		}
	}
	return dst
}

// Prefill runs one prefill iteration over the admitted queue in
// admission order. With a chunk budget (static, or re-derived this
// iteration by the adaptive controller) it processes at most that many
// prompt tokens — finishing the partially prefilled head first — and
// leaves the rest for later iterations; without one it prefills every
// admitted prompt in a single batch. Sequences whose prompt completes
// this iteration emit their first token and move to the decoding
// batch. It returns the metrics of those completing sequences (TTFT
// now known) and the elapsed virtual seconds (0, nil when nothing is
// waiting). The returned slice is reused by the next Prefill call.
func (s *Stepper) Prefill() ([]RequestMetrics, float64) {
	if len(s.admitted) == 0 {
		return nil, 0
	}
	// A pending prefill elapsed with the decode batch empty means the
	// previous Prefill call never got a decode step paired with it:
	// that was a whole (prefill-only) scheduler iteration of its own.
	// Flush it into the step-time EWMA instead of letting a long
	// chunked warm-up accumulate into the next decode's sample.
	if s.lastPrefillElapsed > 0 && len(s.active) == 0 {
		s.observeStepTime(s.lastPrefillElapsed)
		s.lastPrefillElapsed = 0
	}
	budget := s.PrefillChunkTokens
	if s.chunkCtl != nil {
		budget = s.adaptChunkBudget()
	}
	chunked := budget > 0

	// Carve this iteration's chunks in admission order.
	sc := s.scratch()
	sc.chunks = s.carve(budget, sc.chunks[:0])
	chunks := sc.chunks

	// Claim the chunk tokens' KV blocks out of each sequence's
	// reservation. The conservative admission reservation guarantees
	// the physical blocks are there. Consumption is measured by the
	// allocator's pop counter, which — unlike block-table growth — also
	// charges the copy-on-write replacement of a shared tail block.
	for i := range chunks {
		q := s.admitted[i]
		pops := s.mgr.Pops()
		var err error
		if q.prefilled == 0 {
			err = s.mgr.Allocate(q.req.ID, chunks[i].Tokens)
		} else {
			err = s.mgr.Extend(q.req.ID, chunks[i].Tokens)
		}
		if err != nil {
			// Unreachable: the chunk claims within the reservation.
			panic(fmt.Sprintf("engine: reservation violated prefilling request %d: %v", q.req.ID, err))
		}
		q.prefilled += chunks[i].Tokens
		claimed := int(s.mgr.Pops() - pops)
		q.reserved -= claimed
		s.reserved -= claimed
		if q.reserved < 0 {
			panic(fmt.Sprintf("engine: request %d claimed past its reservation", q.req.ID))
		}
		s.prefillTokens += int64(chunks[i].Tokens)
		// Advertise the now-complete full prompt blocks so later requests
		// sharing this prefix reuse them mid-prefill (a no-op with the
		// prefix cache off).
		if err := s.mgr.CommitPrefixHashed(q.req.ID, q.hp, q.prefilled); err != nil {
			panic(fmt.Sprintf("engine: prefix commit for request %d: %v", q.req.ID, err))
		}
	}

	var elapsed float64
	// The prefix cache forces token-packed pricing like chunking does:
	// a padded request-level batch cannot start mid-prompt, and pricing
	// a cached prefix's tokens as computed would silently erase the
	// TTFT win the cache exists for.
	if chunked || s.PackedPrefill || s.mgr.PrefixCacheEnabled() {
		elapsed = s.e.chunkedPrefillTime(&s.gemm, chunks)
	} else {
		maxPrompt := 0
		for i := range chunks {
			if p := s.admitted[i].req.PromptLen; p > maxPrompt {
				maxPrompt = p
			}
		}
		elapsed = s.e.PrefillTime(len(chunks), maxPrompt)
	}
	if s.pendingDecompress > 0 {
		// Claims since the last prefill thawed frozen prefix blocks;
		// their expansion runs ahead of this iteration's compute, so the
		// iteration — and every TTFT it sets — pays for it.
		elapsed += s.e.KVDecompressTime(s.pendingDecompress)
		s.pendingDecompress = 0
	}
	if s.TimeDilation != nil {
		elapsed *= s.TimeDilation(s.now)
	}
	s.now += elapsed
	s.prefillIters++
	s.lastPrefillElapsed += elapsed

	// Completing sequences emit their first token and start decoding;
	// partially prefilled ones keep their queue position, so the head
	// finishes before the budget feeds the next prompt.
	out := sc.out[:0]
	keep := s.admitted[:0]
	for _, q := range s.admitted {
		if q.prefilled < q.req.PromptLen {
			keep = append(keep, q)
			continue
		}
		q.m.FirstToken = s.now
		q.m.TTFT = s.now - q.m.Arrival
		q.remaining-- // the final prefill chunk emits the first token
		s.outputTokens++
		s.join(q)
		out = append(out, q.m)
	}
	s.admitted = keep
	sc.out = out
	return out, elapsed
}

// DecodeStep runs one decode iteration across the whole running batch:
// the clock advances by the batch step cost, every live sequence
// appends one token (claiming KV blocks at block boundaries), and
// finished sequences release their capacity immediately. It returns
// the metrics of sequences that finished this step and the elapsed
// virtual seconds. The returned slice is reused by the next DecodeStep
// call.
func (s *Stepper) DecodeStep() ([]RequestMetrics, float64, error) {
	if len(s.active) == 0 {
		return nil, 0, nil
	}
	b := len(s.active)
	sumCtx := 0
	for _, q := range s.active {
		sumCtx += q.ctx
	}
	elapsed := s.e.batchDecodeStepTime(&s.gemm, b, sumCtx)
	if s.TimeDilation != nil {
		elapsed *= s.TimeDilation(s.now)
	}
	s.now += elapsed
	s.decodeSteps++
	if s.lastDecodeEnd >= 0 {
		if gap := s.now - s.lastDecodeEnd; gap > s.maxDecodeGap {
			s.maxDecodeGap = gap
		}
	}
	s.lastDecodeEnd = s.now

	// One scheduler iteration = the prefill chunk (if any) plus this
	// decode step; smooth it for the stats surface.
	s.observeStepTime(s.lastPrefillElapsed + elapsed)
	s.lastPrefillElapsed = 0

	sc := s.scratch()
	finished := sc.fin[:0]
	next := s.active[:0]
	for _, q := range s.active {
		if q.remaining > 0 {
			pops := s.mgr.Pops()
			if err := s.mgr.AppendToken(q.req.ID); err != nil {
				return nil, elapsed, fmt.Errorf("engine: reservation violated for request %d: %w", q.req.ID, err)
			}
			// Consume reservation as real blocks are claimed (the pop
			// counter also charges copy-on-write block replacements).
			// Claiming past the reservation is an accounting invariant
			// violation and must fail loudly, as the prefill path does.
			claimed := int(s.mgr.Pops() - pops)
			q.reserved -= claimed
			s.reserved -= claimed
			if q.reserved < 0 {
				return nil, elapsed, fmt.Errorf("engine: request %d claimed past its reservation", q.req.ID)
			}
			q.ctx++
			q.remaining--
			s.outputTokens++
		}
		if q.remaining == 0 {
			q.m.Finished = s.now
			q.m.Latency = s.now - q.m.Arrival
			if q.req.OutputLen > 1 {
				q.m.TPOT = (q.m.Finished - q.m.FirstToken) / float64(q.req.OutputLen-1)
			}
			finished = append(finished, q.m)
			if err := s.release(q); err != nil {
				return nil, elapsed, err
			}
		} else {
			next = append(next, q)
		}
	}
	s.active = next
	sc.fin = finished
	return finished, elapsed, nil
}

// Close verifies the allocator after a drained run: no block may be
// leaked or double-owned, and the per-iteration scratch returns to the
// shared pool (metric slices previously returned by Prefill and
// DecodeStep are invalid afterwards). It must only be called once
// every admitted sequence has finished.
func (s *Stepper) Close() error {
	if s.sc != nil {
		s.sc.chunks = s.sc.chunks[:0]
		s.sc.probe = s.sc.probe[:0]
		s.sc.out = s.sc.out[:0]
		s.sc.fin = s.sc.fin[:0]
		scratchPool.Put(s.sc)
		s.sc = nil
	}
	if err := s.mgr.CheckInvariants(); err != nil {
		return fmt.Errorf("engine: allocator corrupted: %w", err)
	}
	if s.InFlight() != 0 {
		return fmt.Errorf("engine: %d sequences still in flight", s.InFlight())
	}
	if s.mgr.UsedBlocks() != 0 || s.reserved != 0 {
		return fmt.Errorf("engine: %d blocks leaked, %d reservations leaked", s.mgr.UsedBlocks(), s.reserved)
	}
	return nil
}
