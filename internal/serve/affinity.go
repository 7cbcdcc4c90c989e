package serve

import (
	"fmt"

	"zipserv/internal/engine"
	"zipserv/internal/kvcache"
)

// Prefix-affinity, cache-aware dispatch (docs/routing.md): instead of
// scattering requests that share a system prompt across the fleet —
// duplicating the prefix trie on every replica — an affinity-enabled
// router estimates each replica's cached overlap with the prompt from
// the prefix-trie digest riding its stats snapshot (root fingerprints
// gate the first block exactly; a bloom filter extends the match block
// by block) and prefers the replica with the most cached tokens to
// reuse. Affinity only wins inside a bounded load band: when the
// preferred replica's queue depth sits more than LoadBand past the
// least-loaded candidate, or its free blocks cannot hold the request's
// reservation, the router spills to plain least-loaded dispatch —
// cache locality is a latency optimisation, never a hotspot generator.
// Scoring is one step of the router's dispatch order (Router.rank): it
// reads the one stats snapshot taken per candidate, and every ordering
// is a stable sort, so dispatch stays deterministic.

// AffinityConfig tunes the router's prefix-affinity dispatch. The zero
// value selects sane defaults for every field.
type AffinityConfig struct {
	// LoadBand bounds how far past the least-loaded candidate's
	// queued+active depth the preferred replica may sit and still win.
	// Past it the dispatch spills to least-loaded. Default 8.
	LoadBand int
	// MinFreeBlocks is a free-KV-block floor on the preferred replica,
	// on top of the request's own conservative prompt+output
	// reservation (which is always required). Default 0.
	MinFreeBlocks int
	// MinOverlapTokens is the smallest estimated cached overlap worth
	// steering for; smaller matches route least-loaded. Default: one
	// KV block (kvcache.DefaultBlockTokens).
	MinOverlapTokens int
	// LongPromptTokens marks a prompt as long: at or above it,
	// equally-loaded candidates tie-break toward replicas whose
	// adaptive chunk budget sits at its ceiling — the PR 5 controller's
	// idle operating point, meaning a loop with prefill headroom to
	// spare — before free blocks. Default engine.DefaultAdaptiveChunkMax.
	LongPromptTokens int
}

func (cfg *AffinityConfig) defaults() {
	if cfg.LoadBand == 0 {
		cfg.LoadBand = 8
	}
	if cfg.MinOverlapTokens == 0 {
		cfg.MinOverlapTokens = kvcache.DefaultBlockTokens
	}
	if cfg.LongPromptTokens == 0 {
		cfg.LongPromptTokens = engine.DefaultAdaptiveChunkMax
	}
}

// EnableAffinity turns on prefix-affinity dispatch for every subsequent
// Submit (and, on a pooled router, every prefill→decode handoff
// dispatch). Call it before traffic; it is not synchronised against
// in-flight Submits. Requests without prompt tokens always route
// least-loaded — there is nothing to match.
func (r *Router) EnableAffinity(cfg AffinityConfig) error {
	if cfg.LoadBand < 0 {
		return fmt.Errorf("serve: affinity LoadBand must be >= 0, got %d", cfg.LoadBand)
	}
	if cfg.MinFreeBlocks < 0 {
		return fmt.Errorf("serve: affinity MinFreeBlocks must be >= 0, got %d", cfg.MinFreeBlocks)
	}
	if cfg.MinOverlapTokens < 0 {
		return fmt.Errorf("serve: affinity MinOverlapTokens must be >= 0, got %d", cfg.MinOverlapTokens)
	}
	if cfg.LongPromptTokens < 0 {
		return fmt.Errorf("serve: affinity LongPromptTokens must be >= 0, got %d", cfg.LongPromptTokens)
	}
	cfg.defaults()
	r.affinity = &cfg
	return nil
}

// noteDispatch records where an affinity-scored request actually
// landed: on the replica it wanted (hit) or anywhere else (spill).
func (r *Router) noteDispatch(landed, preferred leaf) {
	if preferred == nil {
		return
	}
	if landed == preferred {
		r.affinityHits.Add(1)
	} else {
		r.affinitySpills.Add(1)
	}
}
