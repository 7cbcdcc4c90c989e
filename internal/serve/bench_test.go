package serve

import (
	"context"
	"testing"
	"time"
)

// BenchmarkLiveSharedPrefix pushes one shared-prefix burst through the
// full live scheduler (goroutines, channels, policy, stats publishing)
// with the prefix cache off and on — the end-to-end numbers CI's
// perf-regression job tracks.
func BenchmarkLiveSharedPrefix(b *testing.B) {
	for _, bc := range []struct {
		name    string
		enabled bool
	}{{"uncached", false}, {"cached", true}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := prefixTestEngine(b)
			prefix := seqTokens(128, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv, err := New(Config{Engine: eng, QueueDepth: 64, PrefixCache: bc.enabled})
				if err != nil {
					b.Fatal(err)
				}
				srv.Start()
				for r := 0; r < 16; r++ {
					prompt := append(append([]int(nil), prefix...), seqTokens(16, 100+r)...)
					tk, err := srv.Submit(Request{Prompt: prompt, OutputLen: 8})
					if err != nil {
						b.Fatal(err)
					}
					if res := <-tk.Result(); res.Err != nil {
						b.Fatal(res.Err)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := srv.Stop(ctx); err != nil {
					b.Fatal(err)
				}
				cancel()
			}
		})
	}
}

// BenchmarkRouterSubmit is the layer ladder's router row: one Submit
// through a four-replica router with affinity and health routing on,
// over stub replicas that each publish a different tenant's prefix
// digest. No scheduler runs, so the cost is the dispatch decision
// alone: four snapshots and classifications, digest matching, the
// ranking sort and the offer. Requests cycle through the tenants with
// 576-token prompts, as perfbench's tenants-compressed does.
func BenchmarkRouterSubmit(b *testing.B) {
	stats := make([]Stats, 4)
	reqs := make([]Request, len(stats))
	for i := range stats {
		tenant := seqTokens(512, i+1)
		stats[i] = Stats{FreeKVBlocks: 5000, TotalKVBlocks: 5359, PrefixSummary: summaryOf(b, tenant),
			AdaptiveChunking: true, ChunkBudget: 2048, ChunkBudgetMax: 2048}
		reqs[i] = Request{Prompt: append(append([]int(nil), tenant...), seqTokens(64, 100+i)...), OutputLen: 64}
	}
	r, stubs, _ := stubFleet(b, stats, 0)
	for _, s := range stubs {
		s.log = nil
	}
	if err := r.EnableAffinity(AffinityConfig{}); err != nil {
		b.Fatal(err)
	}
	if err := r.EnableHealth(HealthConfig{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Submit(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits := r.affinityHits.Load(); hits != int64(b.N) {
		b.Fatalf("%d of %d submissions landed on their tenant's replica", hits, b.N)
	}
}
