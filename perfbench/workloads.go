package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"zipserv/internal/engine"
	"zipserv/internal/gpu"
	"zipserv/internal/serve"
	"zipserv/internal/weights"
)

// request is one generated /v1/generate call. Body is the exact JSON the
// server receives; the other fields drive the in-process rungs and the
// response checks.
type request struct {
	PromptLen int
	OutputLen int
	Prompt    []int // token ids; nil for length-only requests
	Body      []byte
}

// deployment is the server configuration a workload runs against. The
// end-to-end run passes it to zipserv-server as flags; the traced run
// builds the same fleet in-process from the same fields.
type deployment struct {
	replicas          int
	prefixCacheBlocks int // > 0 enables the prefix cache with this bound
	compressed        bool
	affinity          bool
	pools             []serve.PoolRole // nil: co-located replicas
	adaptiveChunk     bool
}

// flags renders the deployment as zipserv-server flags (the listen
// address is added by the harness).
func (d deployment) flags() []string {
	var f []string
	if d.replicas > 1 {
		f = append(f, "-replicas", strconv.Itoa(d.replicas))
	}
	if d.prefixCacheBlocks > 0 {
		f = append(f, "-prefix-cache", "-prefix-cache-blocks", strconv.Itoa(d.prefixCacheBlocks))
	}
	if d.compressed {
		f = append(f, "-compressed-cache")
	}
	if d.affinity {
		f = append(f, "-affinity")
	}
	if d.pools != nil {
		roles := make([]string, len(d.pools))
		for i, p := range d.pools {
			roles[i] = string(p)
		}
		f = append(f, "-pool", strings.Join(roles, ","))
	}
	if d.adaptiveChunk {
		f = append(f, "-adaptive-chunk")
	}
	return f
}

// The model, device and queue depth of every deployment: the
// zipserv-server defaults.
const (
	modelName  = "LLaMA3.1-8B"
	deviceName = "RTX4090"
	queueDepth = 256
)

func newEngine() (*engine.Engine, error) {
	model, err := weights.ByName(modelName)
	if err != nil {
		return nil, err
	}
	dev, err := gpu.ByName(deviceName)
	if err != nil {
		return nil, err
	}
	return engine.New(engine.Config{Model: model, Device: dev, NumGPUs: 1, Backend: engine.BackendZipServ})
}

// backend builds the deployment in-process the way zipserv-server does
// and starts it. It also returns the replicas, whose own stats give
// per-replica figures a router's aggregate hides.
func (d deployment) backend() (serve.Backend, []*serve.Server, error) {
	n := max(d.replicas, 1)
	servers := make([]*serve.Server, n)
	for i := range servers {
		eng, err := newEngine()
		if err != nil {
			return nil, nil, err
		}
		cfg := serve.Config{
			Engine: eng, QueueDepth: queueDepth,
			PrefixCache: d.prefixCacheBlocks > 0, PrefixCacheBlocks: d.prefixCacheBlocks,
			CompressedCache: d.compressed, AdaptiveChunking: d.adaptiveChunk,
		}
		if d.pools != nil {
			cfg.Pool = d.pools[i]
		}
		if servers[i], err = serve.New(cfg); err != nil {
			return nil, nil, err
		}
	}
	var b serve.Backend = servers[0]
	var r *serve.Router
	var err error
	switch {
	case d.pools != nil:
		r, err = serve.NewPooledRouter(servers...)
	case n > 1:
		backends := make([]serve.Backend, n)
		for i, s := range servers {
			backends[i] = s
		}
		r, err = serve.NewRouter(backends...)
	}
	if err != nil {
		return nil, nil, err
	}
	if r != nil {
		b = r
		if d.affinity {
			if err := r.EnableAffinity(serve.AffinityConfig{}); err != nil {
				return nil, nil, err
			}
		}
	}
	b.Start()
	return b, servers, nil
}

// stepper builds one replica's engine.Stepper with the deployment's
// cache and chunking settings, as a live replica configures its own.
func (d deployment) stepper() (*engine.Stepper, *engine.Engine, error) {
	eng, err := newEngine()
	if err != nil {
		return nil, nil, err
	}
	sp, err := engine.NewStepper(eng)
	if err != nil {
		return nil, nil, err
	}
	sp.PackedPrefill = true
	if d.adaptiveChunk {
		if err := sp.EnableAdaptiveChunking(serve.DefaultTargetStepTime, 0, 0); err != nil {
			return nil, nil, err
		}
	}
	if d.prefixCacheBlocks > 0 {
		if err := sp.EnablePrefixCache(d.prefixCacheBlocks); err != nil {
			return nil, nil, err
		}
		if d.compressed {
			if err := sp.EnableCompressedCache(); err != nil {
				return nil, nil, err
			}
		}
	}
	return sp, eng, nil
}

// workload is one traffic mix: the server deployment it runs against,
// how its requests are drawn, its open-loop rate, and the /v1/stats
// facts that prove the intended layers did (or did not) run.
type workload struct {
	name   string
	deploy deployment
	// openRate is the open-loop arrival rate in requests per wall
	// second, at most a quarter of the closed-loop capacity, so that a
	// slower machine moves latency by its service time and not by a
	// queue growing towards saturation.
	openRate float64
	// virtRate is the arrival rate, in requests per virtual second, of
	// the engine-rung replay. It is the rate the live serve rung measured
	// on this workload (server.virt_arrival_rps; see METRICS.md), fixed
	// here so the replay does not depend on wall time.
	virtRate float64
	// replayN is the fixed length of the engine-rung replay trace: 1 000
	// requests, so its virtual TTFT p99 has ten beyond it. The
	// determinism digest covers it.
	replayN int
	// tenants is the number of shared 512-token prompt prefixes (0 =
	// length-only requests).
	tenants int
	gen     func(g *generator) request
	// expect checks the deployment-specific /v1/stats counters.
	expect func(st serverStats) error
}

var workloads = []*workload{
	{
		name:     "chat-unique",
		openRate: 1000,
		virtRate: 1.1,
		replayN:  1000,
		gen: func(g *generator) request {
			return lengthOnly(g.uniform(64, 512), g.uniform(16, 128))
		},
		expect: func(st serverStats) error {
			if st.DecompressClaims != 0 || st.Handoffs != 0 {
				return fmt.Errorf("bypass workload touched the codec: decompress_claims=%d handoffs=%d",
					st.DecompressClaims, st.Handoffs)
			}
			return nil
		},
	},
	{
		name:     "tenants-compressed",
		deploy:   deployment{replicas: 2, prefixCacheBlocks: 1024, compressed: true, affinity: true},
		openRate: 35,
		virtRate: 2.4,
		replayN:  1000,
		tenants:  8,
		gen: func(g *generator) request {
			prefix := g.prefixes[g.rng.Intn(len(g.prefixes))]
			prompt := make([]int, 0, len(prefix)+uniqueTokens)
			prompt = append(prompt, prefix...)
			for i := 0; i < uniqueTokens; i++ {
				prompt = append(prompt, g.token())
			}
			return tokenPrompt(prompt, 32)
		},
		expect: func(st serverStats) error {
			if st.DecompressClaims == 0 {
				return fmt.Errorf("compressed-cache workload thawed nothing (decompress_claims=0)")
			}
			return nil
		},
	},
	{
		name: "disagg-long",
		deploy: deployment{replicas: 2, pools: []serve.PoolRole{serve.PoolPrefill, serve.PoolDecode},
			adaptiveChunk: true},
		openRate: 30,
		virtRate: 1.15,
		replayN:  1000,
		gen: func(g *generator) request {
			return lengthOnly(g.uniform(512, 1024), 64)
		},
		expect: func(st serverStats) error {
			if st.Handoffs != st.Completed {
				return fmt.Errorf("disaggregated workload: handoffs=%d, completed=%d", st.Handoffs, st.Completed)
			}
			return nil
		},
	},
}

// Tenant prompt geometry of tenants-compressed: a 512-token shared
// prefix (32 whole KV blocks) followed by 64 unique tokens.
const (
	tenantPrefixTokens = 512
	uniqueTokens       = 64
)

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generator draws a workload's request stream from the benchmark seed.
// The same seed and stream label always give the same requests, and the
// running digest over everything drawn is the stream hash the run
// prints.
type generator struct {
	rng      *rand.Rand
	prefixes [][]int
	digest   [32]byte
}

// newGenerator seeds one labelled stream. Tenant prefixes depend on the
// seed alone, so every stream of a run shares them.
func newGenerator(w *workload, seed int64, stream string) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < w.tenants; i++ {
		p := make([]int, tenantPrefixTokens)
		for j := range p {
			p[j] = g.token()
		}
		g.prefixes = append(g.prefixes, p)
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%s", w.name, seed, stream)))
	g.rng = rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h[:8]))))
	return g
}

func (g *generator) uniform(lo, hi int) int { return lo + g.rng.Intn(hi-lo+1) }

// token draws a token id from a vocabulary wide enough that independent
// draws never collide on a whole 16-token block.
func (g *generator) token() int { return 1 + g.rng.Intn(1<<20) }

// next draws one request and folds its body into the stream digest.
func (g *generator) next(w *workload) request {
	r := w.gen(g)
	g.fold(r.Body)
	return r
}

func (g *generator) fold(b []byte) {
	h := sha256.New()
	h.Write(g.digest[:])
	h.Write(b)
	copy(g.digest[:], h.Sum(nil))
}

func (g *generator) hash() string { return hex.EncodeToString(g.digest[:8]) }

func lengthOnly(prompt, output int) request {
	body := fmt.Sprintf(`{"prompt_len":%d,"output_len":%d}`, prompt, output)
	return request{PromptLen: prompt, OutputLen: output, Body: []byte(body)}
}

func tokenPrompt(prompt []int, output int) request {
	b := make([]byte, 0, 8*len(prompt)+64)
	b = append(b, `{"prompt_len":`...)
	b = strconv.AppendInt(b, int64(len(prompt)), 10)
	b = append(b, `,"output_len":`...)
	b = strconv.AppendInt(b, int64(output), 10)
	b = append(b, `,"prompt":[`...)
	for i, t := range prompt {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	b = append(b, "]}"...)
	return request{PromptLen: len(prompt), OutputLen: output, Prompt: prompt, Body: b}
}
