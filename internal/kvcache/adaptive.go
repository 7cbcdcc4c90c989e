package kvcache

import "fmt"

// Adaptive prefix-cache pool sizing: instead of a static
// -prefix-cache-blocks bound, the cached pool's capacity follows a
// closed-loop controller driven by two EWMA signals the scheduler
// feeds it once per admission epoch (one scheduler iteration):
//
//   - hit rate — the fraction of prompt-carrying admissions that
//     reused at least one cached block. While hits keep arriving, the
//     parked blocks are earning their keep (each hit skips re-prefill
//     work worth far more than a parked-but-reclaimable block costs),
//     so the pool may grow.
//   - capacity pressure — whether any admission queued on KV capacity
//     this epoch. Under sustained pressure the pool shrinks
//     multiplicatively (evicting LRU leaf-first at once), handing warm
//     blocks back to the allocator before queued admissions stall.
//
// The control law is deliberately asymmetric, like the chunk-budget
// controller's: shrink fast when admissions are queueing (capacity is
// the SLO), grow slowly while the cache is proving useful.

// Cache-pool controller constants.
const (
	// cacheCtlAlpha smooths both input EWMAs.
	cacheCtlAlpha = 0.2
	// cacheShrinkFactor is the multiplicative decrease applied while
	// pressure is high.
	cacheShrinkFactor = 0.75
	// cacheGrowFactor is the multiplicative increase applied while the
	// hit rate justifies a bigger pool and pressure is low.
	cacheGrowFactor = 1.25
	// cachePressureHigh / cachePressureLow are the pressure-EWMA
	// thresholds for shrinking / allowing growth.
	cachePressureHigh = 0.5
	cachePressureLow  = 0.25
	// cacheGrowHitRate is the hit-rate EWMA above which the pool is
	// considered to be earning its keep.
	cacheGrowHitRate = 0.05
)

// cacheCtl is the pool-sizing controller state.
type cacheCtl struct {
	min, max int
	target   float64 // continuous pool target; cap = round(target)

	hitEWMA   float64
	pressEWMA float64
}

// EnableAdaptivePrefixCache replaces the static cached-pool bound with
// the closed-loop sizing controller. minBlocks floors the pool (≥ 1;
// 0 defaults to 1 so a shrunken pool can always recover by rediscovery)
// and maxBlocks caps it (0 = the whole device plan). The prefix cache
// must already be enabled; the controller starts from the currently
// configured bound (or maxBlocks when the bound was unbounded).
func (m *Manager) EnableAdaptivePrefixCache(minBlocks, maxBlocks int) error {
	if !m.prefixOn {
		return fmt.Errorf("kvcache: adaptive sizing needs the prefix cache enabled")
	}
	if minBlocks < 0 || maxBlocks < 0 {
		return fmt.Errorf("kvcache: adaptive cache bounds must be non-negative, got %d/%d", minBlocks, maxBlocks)
	}
	if minBlocks == 0 {
		minBlocks = 1
	}
	if maxBlocks == 0 {
		maxBlocks = m.cfg.TotalBlocks
	}
	if maxBlocks < minBlocks {
		return fmt.Errorf("kvcache: adaptive cache max %d below min %d", maxBlocks, minBlocks)
	}
	start := m.prefix.cap
	if start == 0 || start > maxBlocks {
		start = maxBlocks
	}
	if start < minBlocks {
		start = minBlocks
	}
	m.prefix.ctl = &cacheCtl{min: minBlocks, max: maxBlocks, target: float64(start)}
	return m.SetPrefixCacheCap(start)
}

// AdaptivePrefixCache reports whether closed-loop pool sizing is on.
func (m *Manager) AdaptivePrefixCache() bool { return m.prefix.ctl != nil }

// CachePoolTarget returns the pool bound the controller (or the static
// configuration) currently holds the cached pool under. 0 = unbounded.
func (m *Manager) CachePoolTarget() int { return m.PrefixCacheCap() }

// CacheHitRateEWMA returns the controller's smoothed per-epoch
// admission hit rate (0 when adaptive sizing is off).
func (m *Manager) CacheHitRateEWMA() float64 {
	if !m.AdaptivePrefixCache() {
		return 0
	}
	return m.prefix.ctl.hitEWMA
}

// CachePressureEWMA returns the controller's smoothed capacity-pressure
// signal (0 when adaptive sizing is off).
func (m *Manager) CachePressureEWMA() float64 {
	if !m.AdaptivePrefixCache() {
		return 0
	}
	return m.prefix.ctl.pressEWMA
}

// AdaptCacheEpoch runs one admission-epoch update of the pool-sizing
// controller: admissions and hits describe the epoch's prompt-carrying
// admissions (hits = those that reused cached blocks), and blocked
// reports whether any admission queued on KV capacity. The pool target
// shrinks multiplicatively under sustained pressure (evicting
// leaf-first immediately) and grows while hits keep arriving with
// capacity easy. It returns the new pool bound. No-op (returning the
// current bound) when adaptive sizing is not enabled.
func (m *Manager) AdaptCacheEpoch(admissions, hits int, blocked bool) int {
	if !m.AdaptivePrefixCache() {
		return m.PrefixCacheCap()
	}
	ctl := m.prefix.ctl
	if admissions > 0 {
		rate := float64(hits) / float64(admissions)
		ctl.hitEWMA = cacheCtlAlpha*rate + (1-cacheCtlAlpha)*ctl.hitEWMA
	}
	press := 0.0
	if blocked {
		press = 1
	}
	ctl.pressEWMA = cacheCtlAlpha*press + (1-cacheCtlAlpha)*ctl.pressEWMA

	switch {
	case ctl.pressEWMA > cachePressureHigh && !m.compressed:
		// With the compressed cache on, shrinking is pointless under
		// pressure: cold blocks hold no physical blocks (their content
		// lives in their nodes' payloads), so evicting them frees
		// compressed bytes, not KV capacity. The pool keeps its target
		// and the extra effective capacity is exactly the feature.
		ctl.target *= cacheShrinkFactor
	case admissions > 0 && ctl.hitEWMA > cacheGrowHitRate && ctl.pressEWMA < cachePressureLow:
		// Growth requires live evidence: the hit-rate EWMA freezes over
		// admission-free epochs (there is nothing to measure), so an
		// idle decode stretch must not compound growth off a stale
		// reading — hits must actually keep arriving.
		ctl.target *= cacheGrowFactor
	}
	if ctl.target < float64(ctl.min) {
		ctl.target = float64(ctl.min)
	}
	if ctl.target > float64(ctl.max) {
		ctl.target = float64(ctl.max)
	}
	cap := int(ctl.target + 0.5)
	if cap != m.prefix.cap {
		// The error path is unreachable: the controller only runs with
		// the prefix cache on and targets are clamped non-negative.
		_ = m.SetPrefixCacheCap(cap)
	}
	return cap
}
