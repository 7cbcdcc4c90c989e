package serve

import (
	"fmt"
	"sync/atomic"

	"zipserv/internal/engine"
)

// Disaggregated prefill/decode serving (docs/disaggregation.md): a
// pooled router partitions replicas by Config.Pool, submits every
// request to the prefill (or mixed) tier, and each prefill replica —
// the moment a prompt produces its first token — exports the
// mid-generation sequence through the TCA-TBE codec and hands the
// compressed KV to the least-loaded decode replica, which imports it
// (deduplicating prompt blocks against its own prefix trie) and decodes
// it to completion. Failure handling is two-sided: a dead or full
// decode replica makes the dispatch try the next one and, when none
// accepts, the prefill replica thaws the export back into its own
// stepper and serves co-located; dead prefill replicas drop out of the
// submit tier's ranking, spilling submissions to the decode replicas,
// which serve them co-located.
//
// Each replica's scheduler runs on the heap core (schedcore.go), whose
// picks are O(log n) in queue depth, so per-replica queue depth is a
// burst-absorption knob, not a scan-cost one.

// handoff couples a mid-generation sequence export with the call owning
// the request's event and result channels. The replica that imports it
// owns the call and finishes it.
type handoff struct {
	exp *engine.SequenceExport
	c   *call
}

// NewPooledRouter builds a disaggregated router over pool-labelled
// servers: replicas configured PoolPrefill or PoolMixed (or unlabelled)
// form the submit tier, PoolDecode replicas receive handoffs and back
// the submit tier up when every preferred replica rejects. All servers
// are rewired to one shared request-id counter, so the fleet must be
// assembled before anything is started or submitted. A fleet with
// prefill replicas needs at least one decode replica; an all-decode
// fleet serves co-located.
func NewPooledRouter(servers ...*Server) (*Router, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("serve: pooled router needs at least one server")
	}
	var (
		backends = make([]leaf, len(servers))
		submit   []leaf
		decode   []leaf
		prefills []*Server
	)
	for i, sv := range servers {
		if sv == nil {
			return nil, fmt.Errorf("serve: pooled router server %d is nil", i)
		}
		backends[i] = sv
		switch sv.cfg.Pool {
		case PoolPrefill:
			submit = append(submit, sv)
			prefills = append(prefills, sv)
		case PoolDecode:
			decode = append(decode, sv)
		default:
			submit = append(submit, sv)
		}
	}
	if len(prefills) > 0 && len(decode) == 0 {
		return nil, fmt.Errorf("serve: a prefill pool needs at least one decode replica")
	}
	if len(submit) == 0 {
		submit, decode = decode, nil // all-decode fleet: co-located
	}
	// One id source across the fleet: a sequence keeps its id across a
	// prefill→decode handoff, so ids minted by different replicas must
	// never collide.
	ids := new(atomic.Int64)
	for _, sv := range servers {
		sv.ids = ids
	}
	r := &Router{replicas: backends, tiers: [][]leaf{submit, decode}}
	for _, p := range prefills {
		p.handoffFn = r.dispatchHandoff
	}
	return r, nil
}

// dispatchHandoff is the prefill replicas' export-dispatch hook: it
// offers an export down the decode tier's ranking (Router.rank) —
// least-loaded, or with affinity enabled the decode replica whose
// prefix-trie digest best overlaps the sequence's prompt first (the
// import dedups prompt blocks against the target's trie, so a matching
// target both shrinks the effective transfer and seeds future
// submissions' affinity). A handoff never arms a half-open probe, but
// its accepts and refusals feed the breakers, so a decode replica that
// sees only handoff traffic can still eject. Acceptance only queues the
// handoff — the import happens on the target's scheduler goroutine — so
// a target that dies after accepting still serves it through its drain
// path. When every replica refuses (stopped or full) the error sends
// the caller down its co-located fallback.
func (r *Router) dispatchHandoff(h *handoff) error {
	refused := fmt.Errorf("serve: no decode replica accepted the handoff")
	req := Request{Prompt: h.exp.Req.Prompt, PromptLen: h.exp.Req.PromptLen, OutputLen: h.exp.Req.OutputLen}
	if r.offer(r.rank(r.tiers[1:], req, false), func(b leaf) error { return b.acceptHandoff(h) }, &refused) {
		return nil
	}
	return refused
}

// PoolAggregate groups per-replica snapshots by pool role and folds
// each group with the router's aggregation — the "pools" breakdown of a
// routed /v1/stats. Unlabelled replicas fold under "mixed".
func PoolAggregate(per []Stats) map[string]Stats {
	groups := make(map[string][]Stats)
	for _, st := range per {
		name := st.Pool
		if name == "" {
			name = string(PoolMixed)
		}
		groups[name] = append(groups[name], st)
	}
	out := make(map[string]Stats, len(groups))
	for name, g := range groups {
		out[name] = aggregateStats(g)
	}
	return out
}
