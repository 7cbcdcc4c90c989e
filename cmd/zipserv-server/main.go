// Command zipserv-server exposes the ZipServ serving simulator as an
// HTTP API: the stateless control plane (capacity planning, run
// simulation, trace-driven continuous batching, compression what-ifs)
// plus a live continuous-batching data plane (POST /v1/generate with
// streaming metrics, GET /v1/stats) — one engine replica by default,
// or a sharded fleet behind a capacity-aware router with -replicas,
// under the admission policy chosen with -policy.
//
// Usage:
//
//	zipserv-server -addr :8080 -model LLaMA3.1-8B -device RTX4090
//	zipserv-server -replicas 4 -policy priority
//	zipserv-server -replicas 2 -pool prefill,decode -prefix-cache    # disaggregated pools
//	zipserv-server -prefill-chunk 256 -admit-window 5ms -time-scale 1
//	zipserv-server -prefix-cache -prefix-cache-blocks 4096
//	zipserv-server -replicas 4 -prefix-cache -affinity -affinity-load-band 8    # cache-aware routing
//	zipserv-server -replicas 4 -health -retry-budget 3                          # breakers + resurrection
//	zipserv-server -replicas 2 -health -fault-plan chaos.plan                   # scripted chaos drill
//	zipserv-server -adaptive-chunk -target-step-time 30ms -prefix-cache -adaptive-prefix-cache
//	zipserv-server -pprof    # go tool pprof localhost:8080/debug/pprof/profile?seconds=15
//	curl localhost:8080/v1/models
//	curl -X POST localhost:8080/v1/simulate -d '{"model":"LLaMA3.1-8B","device":"RTX4090","backend":"zipserv","batch":32,"prompt":128,"output":512}'
//	curl -X POST localhost:8080/v1/generate -d '{"prompt_len":128,"output_len":64}'
//	curl -X POST localhost:8080/v1/generate -d '{"prompt_len":128,"output_len":64,"priority":"batch"}'
//	curl -X POST localhost:8080/v1/generate -d '{"prompt_len":128,"output_len":64,"ttft_deadline_ms":250,"stream":true}'
//	curl -X POST localhost:8080/v1/generate -d '{"prompt":[1,2,3,4],"output_len":64}'   # opts into prefix reuse
//	curl localhost:8080/v1/stats
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener
// stops accepting, in-flight HTTP requests get a drain window, and
// every live scheduler replica serves what it already admitted to
// completion.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zipserv/internal/engine"
	"zipserv/internal/gpu"
	"zipserv/internal/httpapi"
	"zipserv/internal/serve"
	"zipserv/internal/weights"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelName := flag.String("model", "LLaMA3.1-8B", "live deployment: model name from the zoo")
	device := flag.String("device", "RTX4090", "live deployment: GPU model")
	gpus := flag.Int("gpus", 1, "live deployment: tensor-parallel degree per replica")
	backend := flag.String("backend", "zipserv", "live deployment: zipserv, vllm, transformers, dfloat11")
	replicas := flag.Int("replicas", 1, "live deployment: engine replicas behind the capacity-aware router")
	policyName := flag.String("policy", "fifo", "admission policy: "+strings.Join(serve.PolicyNames(), ", "))
	queueDepth := flag.Int("queue", 256, "per-replica admission queue depth (beyond it, /v1/generate returns 429); "+
		"scheduling cost is O(log n) in depth and allocation-free, so size it for burst absorption")
	maxBatch := flag.Int("max-batch", 0, "per-replica cap on concurrently scheduled sequences (0 = KV capacity only)")
	prefillChunk := flag.Int("prefill-chunk", 0,
		"prompt tokens prefilled per scheduler iteration (chunked prefill; 0 = whole prompts)")
	adaptiveChunk := flag.Bool("adaptive-chunk", false,
		"derive the prefill chunk budget per iteration from the decode batch's step-time target instead of -prefill-chunk")
	targetStepTime := flag.Duration("target-step-time", 0,
		"adaptive chunking: combined prefill+decode step-time target per iteration, i.e. the TPOT SLO (0 = 50ms default)")
	admitWindow := flag.Duration("admit-window", 0,
		"micro-batch admission window: hold the first idle-arriving request this long so bursts prefill together (0 = off)")
	timeScale := flag.Float64("time-scale", 0,
		"pace the scheduler against the wall clock: sleep sim-seconds x this factor per iteration (0 = run flat out)")
	prefixCache := flag.Bool("prefix-cache", false,
		"reuse KV blocks across requests sharing a prompt prefix (requests opt in by sending \"prompt\" token arrays)")
	prefixCacheBlocks := flag.Int("prefix-cache-blocks", 0,
		"bound on refcount-zero KV blocks kept warm per replica for prefix reuse (0 = unbounded)")
	adaptivePrefixCache := flag.Bool("adaptive-prefix-cache", false,
		"resize the warm prefix-cache pool per admission epoch from hit rates and KV pressure instead of -prefix-cache-blocks")
	compressedCache := flag.Bool("compressed-cache", false,
		"store cold prefix-cache blocks TCA-TBE-compressed (freed physical blocks become capacity; claims decompress on demand)")
	affinity := flag.Bool("affinity", false,
		"prefix-affinity routing: steer requests sharing a cached prompt prefix to the replica already holding it "+
			"(needs -prefix-cache and token-array prompts; spills to least-loaded outside the load band)")
	affinityLoadBand := flag.Int("affinity-load-band", 0,
		"affinity spill bound: how many queued+active requests past the least-loaded replica the cache-preferred one may hold and still win (0 = default 8)")
	health := flag.Bool("health", false,
		"health-aware routing: per-replica breakers eject failing replicas from dispatch, half-open probes re-admit them, "+
			"and requests lost to replica deaths resurrect on the survivors (needs -replicas > 1 or disaggregated -pool roles)")
	retryBudget := flag.Int("retry-budget", 0,
		"resurrection retry budget: how many replica deaths one request may survive before failing to the client (0 = default 3; needs -health)")
	faultPlanPath := flag.String("fault-plan", "",
		"path to a deterministic fault-injection plan (docs/robustness.md DSL: crash/hang/slow/codecfail/drophandoff/stalestats "+
			"directives addressed to replicas by index, triggered on each replica's virtual clock)")
	pool := flag.String("pool", "",
		"disaggregation pool roles, comma-separated per replica in order (prefill, decode, mixed); "+
			"one value applies to every replica; any prefill/decode role routes prompts prefill→decode with compressed KV handoff")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown window")
	pprofOn := flag.Bool("pprof", false,
		"serve the net/http/pprof profiling handlers under /debug/pprof/ on the API listener (off by default: keep them off a public listener)")
	flag.Parse()

	model, err := weights.ByName(*modelName)
	if err != nil {
		log.Fatalf("zipserv-server: %v", err)
	}
	dev, err := gpu.ByName(*device)
	if err != nil {
		log.Fatalf("zipserv-server: %v", err)
	}
	if *replicas < 1 {
		log.Fatalf("zipserv-server: -replicas must be >= 1, got %d", *replicas)
	}
	// Pool roles: one per replica in order; a single value labels the
	// whole fleet. Any prefill/decode role turns the fleet into a
	// disaggregated pooled router.
	pools := make([]serve.PoolRole, *replicas)
	pooled := false
	if *pool != "" {
		roles := strings.Split(*pool, ",")
		if len(roles) != 1 && len(roles) != *replicas {
			log.Fatalf("zipserv-server: -pool lists %d roles for %d replicas", len(roles), *replicas)
		}
		for i := range pools {
			role := serve.PoolRole(strings.TrimSpace(roles[i%len(roles)]))
			pools[i] = role
			if role == serve.PoolPrefill || role == serve.PoolDecode {
				pooled = true
			}
		}
	}

	// A scripted fault plan is parsed up front and projected per
	// replica: each server consults only the directives addressed to
	// its own fleet index.
	var plan *serve.FaultPlan
	if *faultPlanPath != "" {
		text, err := os.ReadFile(*faultPlanPath)
		if err != nil {
			log.Fatalf("zipserv-server: -fault-plan: %v", err)
		}
		plan, err = serve.ParseFaultPlan(string(text))
		if err != nil {
			log.Fatalf("zipserv-server: -fault-plan %s: %v", *faultPlanPath, err)
		}
		if max := plan.MaxReplica(); max >= *replicas {
			log.Fatalf("zipserv-server: -fault-plan addresses replica %d, fleet has %d", max, *replicas)
		}
	}

	// Each replica gets its own engine (its own KV plan and virtual
	// clock), modelling one GPU/node; the router shards across them.
	servers := make([]*serve.Server, *replicas)
	for i := range servers {
		eng, err := engine.New(engine.Config{
			Model: model, Device: dev, NumGPUs: *gpus, Backend: engine.Backend(*backend),
		})
		if err != nil {
			log.Fatalf("zipserv-server: %v", err)
		}
		policy, err := serve.PolicyByName(*policyName)
		if err != nil {
			log.Fatalf("zipserv-server: %v", err)
		}
		srv, err := serve.New(serve.Config{
			Engine: eng, QueueDepth: *queueDepth, MaxBatch: *maxBatch, Policy: policy,
			PrefillChunkTokens: *prefillChunk, AdmissionWindow: *admitWindow, TimeScale: *timeScale,
			PrefixCache: *prefixCache, PrefixCacheBlocks: *prefixCacheBlocks,
			AdaptiveChunking: *adaptiveChunk, TargetStepTime: targetStepTime.Seconds(),
			AdaptivePrefixCache: *adaptivePrefixCache,
			CompressedCache:     *compressedCache,
			Pool:                pools[i],
			Faults:              plan.Replica(i),
		})
		if err != nil {
			log.Fatalf("zipserv-server: %v", err)
		}
		servers[i] = srv
	}
	if *affinity && !*prefixCache {
		log.Fatalf("zipserv-server: -affinity needs -prefix-cache (the routing signal is the replicas' prefix-trie digests)")
	}
	if *affinity && !pooled && *replicas == 1 {
		log.Fatalf("zipserv-server: -affinity needs -replicas > 1 or disaggregated -pool roles (one replica leaves nothing to steer between)")
	}
	if *affinityLoadBand < 0 || (*affinityLoadBand > 0 && !*affinity) {
		log.Fatalf("zipserv-server: -affinity-load-band needs -affinity and a non-negative value, got %d", *affinityLoadBand)
	}
	if *health && !pooled && *replicas == 1 {
		log.Fatalf("zipserv-server: -health needs -replicas > 1 or disaggregated -pool roles (one replica leaves nowhere to route around a failure)")
	}
	if *retryBudget < 0 || (*retryBudget > 0 && !*health) {
		log.Fatalf("zipserv-server: -retry-budget needs -health and a non-negative value, got %d", *retryBudget)
	}
	var live serve.Backend = servers[0]
	var router *serve.Router
	switch {
	case pooled:
		r, err := serve.NewPooledRouter(servers...)
		if err != nil {
			log.Fatalf("zipserv-server: %v", err)
		}
		router, live = r, r
	case *replicas > 1:
		backends := make([]serve.Backend, len(servers))
		for i, sv := range servers {
			backends[i] = sv
		}
		r, err := serve.NewRouter(backends...)
		if err != nil {
			log.Fatalf("zipserv-server: %v", err)
		}
		router, live = r, r
	}
	if *affinity {
		if err := router.EnableAffinity(serve.AffinityConfig{LoadBand: *affinityLoadBand}); err != nil {
			log.Fatalf("zipserv-server: %v", err)
		}
	}
	if *health {
		if err := router.EnableHealth(serve.HealthConfig{RetryBudget: *retryBudget}); err != nil {
			log.Fatalf("zipserv-server: %v", err)
		}
	}
	live.Start()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           apiHandler(live, *pprofOn),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	chunkDesc := "whole-prompt prefill"
	if *adaptiveChunk {
		target := targetStepTime.Seconds()
		if target == 0 {
			target = serve.DefaultTargetStepTime
		}
		chunkDesc = fmt.Sprintf("adaptive prefill chunks (%.0fms step target)", target*1e3)
	} else if *prefillChunk > 0 {
		chunkDesc = fmt.Sprintf("%d-token prefill chunks", *prefillChunk)
	}
	cacheDesc := "prefix cache off"
	if *prefixCache {
		cacheDesc = "prefix cache on (unbounded)"
		switch {
		case *adaptivePrefixCache:
			cacheDesc = "prefix cache on (adaptive pool)"
		case *prefixCacheBlocks > 0:
			cacheDesc = fmt.Sprintf("prefix cache on (%d blocks)", *prefixCacheBlocks)
		}
		if *compressedCache {
			cacheDesc += ", cold blocks compressed"
		}
	}
	poolDesc := ""
	if pooled {
		poolDesc = fmt.Sprintf(", disaggregated pools [%s]", *pool)
	}
	if *affinity {
		poolDesc += ", prefix-affinity routing"
	}
	if *health {
		poolDesc += ", health-aware routing"
	}
	if plan != nil {
		poolDesc += fmt.Sprintf(", fault plan %s (%d events)", *faultPlanPath, len(plan.Events))
	}
	if *pprofOn {
		poolDesc += ", pprof on /debug/pprof/"
	}
	log.Printf("zipserv-server listening on %s (live: %d× [%s on %dx %s], %s backend, %s policy, %s, %s%s)",
		*addr, *replicas, *modelName, *gpus, *device, *backend, *policyName, chunkDesc, cacheDesc, poolDesc)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("zipserv-server: shutting down (drain %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("zipserv-server: HTTP shutdown: %v", err)
	}
	if err := live.Stop(shutdownCtx); err != nil {
		log.Printf("zipserv-server: scheduler drain: %v", err)
	}
	log.Printf("zipserv-server: bye")
}

// apiHandler returns the listener's handler: the live API, plus the
// net/http/pprof handlers under /debug/pprof/ when pprofOn is set.
func apiHandler(live serve.Backend, pprofOn bool) http.Handler {
	mux := httpapi.NewLiveMux(live)
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
