package serve

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"zipserv/internal/kvcache"
)

// referenceAggregateStats is the hand-written fleet fold that the agg
// tags replaced, kept as FuzzAggregateStats's oracle.
func referenceAggregateStats(replicas []Stats) Stats {
	var agg Stats
	var ttft, tpot, wait float64
	var hitEWMA float64
	adaptiveCaches := 0
	var compOrigBytes float64
	var summaries []*kvcache.PrefixSummary
	for i, st := range replicas {
		agg.Submitted += st.Submitted
		agg.Rejected += st.Rejected
		agg.Completed += st.Completed
		agg.Failed += st.Failed
		agg.Preempted += st.Preempted
		agg.Queued += st.Queued
		agg.Active += st.Active
		agg.FreeKVBlocks += st.FreeKVBlocks
		agg.TotalKVBlocks += st.TotalKVBlocks
		agg.OutputTokens += st.OutputTokens
		agg.DecodeSteps += st.DecodeSteps
		agg.PeakConcurrency += st.PeakConcurrency
		agg.RecentDrainRPS += st.RecentDrainRPS
		agg.PrefillIterations += st.PrefillIterations
		agg.PrefillTokens += st.PrefillTokens
		agg.PrefixCacheEnabled = agg.PrefixCacheEnabled || st.PrefixCacheEnabled
		agg.PrefixHits += st.PrefixHits
		agg.PrefixTokensSaved += st.PrefixTokensSaved
		agg.CachedKVBlocks += st.CachedKVBlocks
		agg.SharedKVBlocks += st.SharedKVBlocks
		// Affinity telemetry: counters sum (servers report 0; the router
		// adds its own dispatch outcomes in Snapshot), the trie
		// digests merge below, and the fleet summary age is the oldest
		// replica's — the staleness bound on any overlap estimate made
		// from this aggregate.
		agg.PrefixAffinityHits += st.PrefixAffinityHits
		agg.AffinitySpills += st.AffinitySpills
		if st.PrefixSummary != nil {
			summaries = append(summaries, st.PrefixSummary)
		}
		if st.SummaryAgeSeconds > agg.SummaryAgeSeconds {
			agg.SummaryAgeSeconds = st.SummaryAgeSeconds
		}
		// Compressed-cache counters sum like the capacity they describe;
		// the fleet ratio is reconstructed below from per-replica
		// original footprints (ratio × compressed bytes), so replicas
		// holding more content weigh more.
		agg.CompressedCacheEnabled = agg.CompressedCacheEnabled || st.CompressedCacheEnabled
		agg.CompressedKVBlocks += st.CompressedKVBlocks
		agg.CompressedKVBytes += st.CompressedKVBytes
		agg.DecompressClaims += st.DecompressClaims
		compOrigBytes += st.KVCompressionRatio * float64(st.CompressedKVBytes)
		agg.Handoffs += st.Handoffs
		agg.HandoffBytes += st.HandoffBytes
		agg.HandoffFailures += st.HandoffFailures
		agg.HandoffImports += st.HandoffImports
		// Robustness and health telemetry: counters and the census sum
		// (the router adds its own breaker/retry outcomes and census in
		// Snapshot, like affinity), and the enablement flag ORs.
		// HealthState is a per-replica annotation and never aggregates.
		agg.LostRequests += st.LostRequests
		agg.HandoffDrops += st.HandoffDrops
		agg.CodecFallbacks += st.CodecFallbacks
		agg.HealthEnabled = agg.HealthEnabled || st.HealthEnabled
		agg.ReplicasHealthy += st.ReplicasHealthy
		agg.ReplicasDegraded += st.ReplicasDegraded
		agg.ReplicasEjected += st.ReplicasEjected
		agg.Ejections += st.Ejections
		agg.HealthProbes += st.HealthProbes
		agg.Reinstatements += st.Reinstatements
		agg.Resurrections += st.Resurrections
		agg.RetryExhausted += st.RetryExhausted
		// Worst-replica cadence stall and the largest configured budget
		// (fleets are normally homogeneous; max is the honest summary
		// when they are not).
		if st.MaxDecodeGap > agg.MaxDecodeGap {
			agg.MaxDecodeGap = st.MaxDecodeGap
		}
		if st.PrefillChunkTokens > agg.PrefillChunkTokens {
			agg.PrefillChunkTokens = st.PrefillChunkTokens
		}
		// Adaptive-controller telemetry: the fleet budget spread is the
		// min/max over the replicas' own spreads, the headline budget
		// and step-time figures are the worst replica's, pool targets
		// sum like the capacity they bound, and the hit-rate EWMA
		// averages the replicas that run the sizing controller.
		agg.AdaptiveChunking = agg.AdaptiveChunking || st.AdaptiveChunking
		agg.AdaptivePrefixCache = agg.AdaptivePrefixCache || st.AdaptivePrefixCache
		// The fleet's tightest budget is the min over replicas that have
		// one: a monolithic replica's 0 means "no per-iteration bound",
		// not "bound of zero", so folding it in would report the loosest
		// replica as the tightest. 0 survives only on an all-monolithic
		// fleet.
		if st.ChunkBudgetMin > 0 && (agg.ChunkBudgetMin == 0 || st.ChunkBudgetMin < agg.ChunkBudgetMin) {
			agg.ChunkBudgetMin = st.ChunkBudgetMin
		}
		if st.ChunkBudgetMax > agg.ChunkBudgetMax {
			agg.ChunkBudgetMax = st.ChunkBudgetMax
		}
		if st.ChunkBudget > agg.ChunkBudget {
			agg.ChunkBudget = st.ChunkBudget
		}
		if st.TargetStepTime > agg.TargetStepTime {
			agg.TargetStepTime = st.TargetStepTime
		}
		if st.StepTimeEWMA > agg.StepTimeEWMA {
			agg.StepTimeEWMA = st.StepTimeEWMA
		}
		if st.CachePressureEWMA > agg.CachePressureEWMA {
			agg.CachePressureEWMA = st.CachePressureEWMA
		}
		agg.CachePoolTarget += st.CachePoolTarget
		if st.AdaptivePrefixCache {
			hitEWMA += st.CacheHitRateEWMA
			adaptiveCaches++
		}
		if st.SimSeconds > agg.SimSeconds {
			agg.SimSeconds = st.SimSeconds
		}
		if st.WallSeconds > agg.WallSeconds {
			agg.WallSeconds = st.WallSeconds
		}
		if i == 0 {
			agg.Policy = st.Policy
			agg.Pool = st.Pool
		} else {
			if agg.Policy != st.Policy {
				agg.Policy = "mixed"
			}
			if agg.Pool != st.Pool {
				agg.Pool = string(PoolMixed)
			}
		}
		ttft += st.MeanTTFT * float64(st.Completed)
		tpot += st.MeanTPOT * float64(st.Completed)
		wait += st.MeanQueueWait * float64(st.Completed)
	}
	if agg.Completed > 0 {
		agg.MeanTTFT = ttft / float64(agg.Completed)
		agg.MeanTPOT = tpot / float64(agg.Completed)
		agg.MeanQueueWait = wait / float64(agg.Completed)
	}
	if adaptiveCaches > 0 {
		agg.CacheHitRateEWMA = hitEWMA / float64(adaptiveCaches)
	}
	if agg.CompressedKVBytes > 0 {
		agg.KVCompressionRatio = compOrigBytes / float64(agg.CompressedKVBytes)
	} else if agg.CompressedCacheEnabled {
		agg.KVCompressionRatio = 1.0 // enabled fleet, nothing frozen yet
	}
	agg.PrefixSummary = kvcache.MergePrefixSummaries(summaries)
	if agg.SimSeconds > 0 {
		agg.Goodput = float64(agg.Completed) / agg.SimSeconds
		agg.Throughput = float64(agg.OutputTokens) / agg.SimSeconds
	}
	return agg
}

// statsGen decodes fuzz bytes into random fleets of finite replica
// snapshots. Once the bytes run out every value reads as zero.
type statsGen struct{ data []byte }

func (g *statsGen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

// names are the string values a snapshot may carry: few, so that
// replicas often agree, and "mixed" among them, as a fold of folds reports.
var names = []string{"", "fifo", "slo", "prefill", "decode", "mixed"}

// leaf fills every Stats field by its kind: ints and floats of either
// sign (a float may be −0) and, now and then, of a magnitude that
// overflows a sum or a product; bools; names; and prefix digests that
// may disagree on granularity or bloom shape.
func (g *statsGen) leaf() Stats {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		b, scale := g.next(), g.next()
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			n := int64(int8(b))
			if scale > 0xf0 {
				n <<= scale & 0x3f
			}
			f.SetInt(n)
		case reflect.Float64:
			x := float64(int8(b)) / float64(int(scale&0x0f)-8|1) // 0 over a negative divisor is −0
			if scale > 0xf0 {
				x *= 1e300
			}
			f.SetFloat(x)
		case reflect.Bool:
			f.SetBool(b&1 == 1)
		case reflect.String:
			f.SetString(names[int(b)%len(names)])
		case reflect.Pointer:
			if b%3 == 0 {
				continue // no digest
			}
			bloom := make([]uint64, 1+int(b>>1&1))
			bloom[0] = uint64(b) << (scale & 0x3f)
			f.Set(reflect.ValueOf(&kvcache.PrefixSummary{
				BlockTokens: 16 << (b & 1), Blocks: int(scale), Roots: []uint64{uint64(scale)},
				Bloom: bloom, BloomK: 1 + int(scale&1), Epoch: int64(scale >> 1),
			}))
		}
	}
	return st
}

// fleet decodes up to four snapshots. Down to two levels, a snapshot
// may instead be the fold of a sub-fleet, checked against the oracle on
// the way, so the two folds agree on folded inputs too.
func (g *statsGen) fleet(t *testing.T, depth int) []Stats {
	fleet := make([]Stats, g.next()%5)
	for i := range fleet {
		if depth < 2 && g.next()%4 == 0 {
			fleet[i] = checkFold(t, g.fleet(t, depth+1))
		} else {
			fleet[i] = g.leaf()
		}
	}
	return fleet
}

// checkFold folds a fleet both ways and requires every field equal:
// floats bit for bit, the prefix digest by value.
func checkFold(t *testing.T, fleet []Stats) Stats {
	t.Helper()
	got, want := aggregateStats(fleet), referenceAggregateStats(fleet)
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		a, b := g.Field(i), w.Field(i)
		same := reflect.DeepEqual(a.Interface(), b.Interface())
		if a.Kind() == reflect.Float64 {
			same = math.Float64bits(a.Float()) == math.Float64bits(b.Float())
		}
		if !same {
			t.Fatalf("%s over %d snapshots: tag fold %v, oracle %v", g.Type().Field(i).Name, len(fleet), a, b)
		}
	}
	return got
}

// FuzzAggregateStats checks the tag-driven fold against the
// hand-written oracle on random fleets, folds of folds included.
func FuzzAggregateStats(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &statsGen{data: data}
		checkFold(t, g.fleet(t, 0))
	})
}

// TestAggOpsRejectsBadTags: the op table refuses a field without a
// rule, a rule outside the closed set, a weight on a rule that takes
// none, and a mean whose weight names no field or a field that cannot
// weigh.
func TestAggOpsRejectsBadTags(t *testing.T) {
	if _, err := aggOps(reflect.TypeFor[Stats]()); err != nil {
		t.Fatal(err)
	}
	for name, typ := range map[string]reflect.Type{
		"untagged": reflect.TypeFor[struct{ A int }](),
		"unknown rule": reflect.TypeFor[struct {
			A int `agg:"avg"`
		}](),
		"sum weight": reflect.TypeFor[struct {
			A int `json:"a" agg:"sum:a"`
		}](),
		"no weight": reflect.TypeFor[struct {
			A float64 `json:"a" agg:"mean"`
		}](),
		"unknown weight": reflect.TypeFor[struct {
			A float64 `json:"a" agg:"mean:b"`
			B int     `json:"bb" agg:"sum"`
		}](),
		"float weight": reflect.TypeFor[struct {
			A float64 `json:"a" agg:"mean:b"`
			B float64 `json:"b" agg:"sum"`
		}](),
	} {
		if _, err := aggOps(typ); err == nil {
			t.Errorf("%s: op table built", name)
		}
	}
}
