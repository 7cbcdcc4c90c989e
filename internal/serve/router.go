package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"zipserv/internal/engine"
	"zipserv/internal/kvcache"
)

// Backend is the serving surface the HTTP layer binds to: one live
// scheduler (*Server) or a sharded fleet of them (*Router). Submit,
// Stats and Stop follow the Server semantics; Start is idempotent.
type Backend interface {
	// Start launches the backend's scheduler goroutine(s).
	Start()
	// Submit offers a request without blocking (ErrInvalidRequest,
	// ErrQueueFull, ErrStopped, ErrNeverFits on failure).
	Submit(Request) (*Ticket, error)
	// Stats returns an aggregate snapshot, safe for concurrent use.
	Stats() Stats
	// Stop drains gracefully: everything admitted is served, new
	// submissions fail with ErrStopped.
	Stop(context.Context) error
}

// leaf is a replica a router routes to. Beyond Submit, a router hands
// it work directly: a decode replica takes a prefill replica's handoff,
// and a survivor takes a dead replica's lost request. *Server is the
// one implementation; tests substitute stubs. A *Router is not a leaf:
// routers route servers and do not nest.
type leaf interface {
	Backend
	acceptHandoff(*handoff) error
	resubmit(*call) error
}

// Router shards traffic across N replica backends with capacity-aware
// dispatch: each Submit ranks the replicas least-loaded-first by their
// Stats snapshot — fewest queued+active requests, then most free KV
// blocks — and fails over down the ranking when a replica's queue is
// full or it has stopped, so draining one replica reroutes traffic
// without failed requests. A Router is itself a Backend, so the HTTP
// layer serves one server and a fleet alike.
type Router struct {
	replicas []leaf

	// tiers are the dispatch tiers in preference order: the flat replica
	// set for a plain NewRouter, or for NewPooledRouter the submit tier
	// (prefill + mixed replicas) followed by the decode tier, which
	// receives handoffs and serves submissions co-located only when every
	// preferred replica rejects — the prefill-death failover.
	tiers [][]leaf

	// Router-level admission outcomes. Failover probes bump the
	// replicas' own rejected counters even when the request lands
	// elsewhere, so the fleet aggregate reports these instead: what
	// clients actually observed.
	submitted atomic.Int64
	rejected  atomic.Int64

	// Prefix-affinity dispatch (affinity.go; nil = least-loaded only).
	// Hits count requests landing on the replica with the best estimated
	// prefix overlap; spills count requests that wanted a replica but
	// routed elsewhere (load band, free-block floor, or failover).
	affinity       *AffinityConfig
	affinityHits   atomic.Int64
	affinitySpills atomic.Int64

	// Health-aware routing (health.go; nil = every replica always
	// eligible). healthMap is assembled once by EnableHealth and
	// read-only afterwards; per-replica state lives behind each entry's
	// own mutex.
	health         *HealthConfig
	healthMap      map[leaf]*replicaHealth
	ejections      atomic.Int64
	healthProbes   atomic.Int64
	reinstatements atomic.Int64
	resurrections  atomic.Int64
	retryExhausted atomic.Int64
}

var _ Backend = (*Router)(nil)

// NewRouter builds a router over the given replicas (at least one),
// each a *Server over a per-GPU or per-node engine; any other Backend,
// a *Router included, is an error. The router does not start or own
// the replicas' engines.
func NewRouter(replicas ...Backend) (*Router, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one replica")
	}
	leaves := make([]leaf, len(replicas))
	for i, b := range replicas {
		l, ok := b.(leaf)
		if !ok {
			return nil, fmt.Errorf("serve: router replica %d is %T, not a server", i, b)
		}
		leaves[i] = l
	}
	return &Router{replicas: leaves, tiers: [][]leaf{leaves}}, nil
}

// Start launches every replica.
func (r *Router) Start() {
	for _, b := range r.replicas {
		b.Start()
	}
}

// Submit dispatches the request tier by tier, offering it down each
// tier's ranking (rank) — the in-band affinity pick or the least-loaded
// replica first — and ranking the next tier only when every replica of
// this one refused. The returned error is the most retryable one
// observed: a full queue (the caller should back off and retry) wins
// over a stopped replica; ErrNeverFits is returned only when no running
// replica could ever admit the request. A malformed request
// (ErrInvalidRequest) fails at once: every replica would refuse it
// alike, so there is nothing to fail over to, and the refusal says
// nothing about replica health.
func (r *Router) Submit(req Request) (*Ticket, error) {
	var tk *Ticket
	try := func(b leaf) (err error) {
		tk, err = b.Submit(req)
		return err
	}
	refused := ErrStopped // empty dispatch tiers: nothing was tried
	for t := range r.tiers {
		if r.offer(r.rank(r.tiers[t:t+1], req, true), try, &refused) {
			r.submitted.Add(1)
			return tk, nil
		}
		if errors.Is(refused, ErrInvalidRequest) {
			break
		}
	}
	// Every failure is a client-visible submit failure the fleet's
	// per-replica counters cannot see (failover probes bump the replicas'
	// own rejected counts even when a request lands), so each one counts
	// here.
	r.rejected.Add(1)
	return nil, refused
}

// The groups of one dispatch's ranking, in offer order.
const (
	groupProbe    = iota // half-open probes this dispatch armed, in tier order
	groupHealthy         // the in-band affinity pick, then least-loaded
	groupDegraded        // least-loaded
	groupAll             // the liveness guard: every replica, least-loaded
	groupOut             // ejected or mid-probe: not offered
)

// candidate is one replica's view for one dispatch, read from a single
// Stats snapshot.
type candidate struct {
	b     leaf
	tier  int
	group int
	// pin moves the affinity pick to the front of its group (-1: in
	// band with room for the reservation) or to its back (+1: spilled,
	// kept only as last-resort failover).
	pin    int
	load   int  // queued+active
	cached int  // trie blocks its prefix digest advertises (affinity-scored only)
	free   int  // free KV blocks
	idle   bool // adaptive chunk budget at the controller ceiling (affinity-scored only)
	// overlap is the estimated cached prompt prefix in tokens, at the
	// digest's blockTokens granularity (affinity-scored only).
	overlap     int
	blockTokens int
}

// ranking is one dispatch's offer order.
type ranking struct {
	order []leaf
	// preferred is the replica affinity wanted (in band or not); nil
	// when the dispatch was not affinity-scored.
	preferred leaf
	// probes counts the half-open trials this dispatch armed:
	// order[:probes].
	probes int
}

// rank is the router's one dispatch order, shared by Submit, handoff
// dispatch and resurrection. It snapshots each candidate once and
// classifies it once, then orders every tier in turn:
//
//  1. half-open probes, armed only when arm is set (client submissions
//     over a single tier; the submission is the trial);
//  2. healthy replicas: the in-band affinity pick, then least-loaded;
//  3. degraded replicas, least-loaded;
//  4. when no tier has any of the above left (every replica ejected or
//     mid-probe), every replica least-loaded — the liveness guard: a
//     fully tripped breaker degrades dispatch, it does not refuse it.
//
// Least-loaded means fewest queued+active requests, then most free KV
// blocks; for an affinity-scored long prompt, a replica whose adaptive
// chunk budget sits at the ceiling every replica's controller runs
// (engine.DefaultAdaptiveChunkMax: the idle point, a loop with prefill
// headroom to spare) wins a load tie before free blocks do. The
// published ChunkBudgetMax is the current budget, not that ceiling.
// An affinity-scored load tie then goes to the replica whose digest
// advertises fewer blocks, before free blocks: a prompt no replica
// holds seeds its prefix where the cache is emptiest, so distinct
// prefixes spread over an idle fleet instead of all landing on the
// first replica. The free count cannot tell that apart, because it
// counts cached and frozen blocks as free.
// Every sort is stable, so remaining ties keep tier order. Requests
// without prompt tokens are never affinity-scored: there is nothing to
// match.
func (r *Router) rank(tiers [][]leaf, req Request, arm bool) ranking {
	aff := r.affinity
	if len(req.Prompt) == 0 {
		aff = nil
	}
	var (
		cands  = make([]candidate, 0, len(r.replicas)) // every tier is a subset
		hashed map[int]kvcache.HashedPrompt            // per digest granularity
		live   int
	)
	if aff != nil {
		hashed = make(map[int]kvcache.HashedPrompt, 1)
	}
	for t, tier := range tiers {
		for _, b := range tier {
			st := b.Stats()
			c := candidate{b: b, tier: t, group: groupOut, load: st.Queued + st.Active, free: st.FreeKVBlocks}
			switch state, armed := r.classify(b, &st, arm); {
			case armed:
				c.group = groupProbe
			case state == HealthHealthy:
				c.group = groupHealthy
			case state == HealthDegraded:
				c.group = groupDegraded
			}
			if c.group != groupOut {
				live++
			}
			if aff != nil && c.group == groupHealthy {
				c.idle = st.AdaptiveChunking && st.ChunkBudget >= engine.DefaultAdaptiveChunkMax
				if s := st.PrefixSummary; s != nil {
					hp, ok := hashed[s.BlockTokens]
					if !ok {
						hp = kvcache.HashPromptTokens(req.Prompt, s.BlockTokens)
						hashed[s.BlockTokens] = hp
					}
					c.overlap, c.blockTokens, c.cached = s.MatchTokens(hp), s.BlockTokens, s.Blocks
				}
			}
			cands = append(cands, c)
		}
	}
	if live == 0 {
		for i := range cands {
			cands[i].group = groupAll
		}
	}

	// PromptLen may be omitted when tokens are given (Server.Submit
	// defaults it later); score with the effective length.
	promptLen := req.PromptLen
	if promptLen == 0 {
		promptLen = len(req.Prompt)
	}
	// The replica the request wants: the healthy candidate with the best
	// overlap, band or no band. Ties break toward lower load, then tier
	// order.
	var preferred leaf
	want, minLoad := -1, -1
	for i, c := range cands {
		if aff == nil || c.group != groupHealthy {
			continue
		}
		if minLoad < 0 || c.load < minLoad {
			minLoad = c.load
		}
		if c.overlap >= aff.MinOverlapTokens && (want < 0 || c.overlap > cands[want].overlap ||
			c.overlap == cands[want].overlap && c.load < cands[want].load) {
			want = i
		}
	}
	if want >= 0 {
		// Affinity wins only in band and with room for the reservation.
		// Out of band or under the floor the dispatch deliberately spills:
		// the preferred replica is demoted to last-resort failover, so the
		// request goes somewhere with room even when the starved replica
		// is momentarily the least-loaded (failover may still reach it
		// when everything else rejects, which then counts as a hit).
		pc := &cands[want]
		preferred = pc.b
		need := kvcache.BlocksFor(promptLen+req.OutputLen, pc.blockTokens)
		pc.pin = 1
		if pc.load <= minLoad+aff.LoadBand && pc.free >= need && pc.free >= aff.MinFreeBlocks {
			pc.pin = -1
		}
	}

	longPrompt := aff != nil && promptLen >= aff.LongPromptTokens
	sort.SliceStable(cands, func(i, j int) bool {
		x, y := &cands[i], &cands[j]
		switch {
		case x.tier != y.tier:
			return x.tier < y.tier
		case x.group != y.group:
			return x.group < y.group
		case x.group == groupProbe:
			return false // probes keep tier order
		case x.pin != y.pin:
			return x.pin < y.pin
		case x.load != y.load:
			return x.load < y.load
		case longPrompt && x.idle != y.idle:
			return x.idle
		case x.cached != y.cached:
			return x.cached < y.cached
		}
		return x.free > y.free
	})
	rk := ranking{order: make([]leaf, 0, len(cands)), preferred: preferred}
	for _, c := range cands {
		if c.group != groupOut {
			rk.order = append(rk.order, c.b)
		}
		if c.group == groupProbe {
			rk.probes++
		}
	}
	return rk
}

// offer is the router's one offer loop: it tries rk's replicas in order
// until try accepts one, recording each outcome on the breakers and, on
// acceptance, the affinity hit or spill. A probe rk armed that the walk
// never reached is released, so it stays due. Each refusal folds into
// *refused by Submit's precedence (refusalRank); an invalid request ends
// the walk at once, since every replica refuses it alike.
func (r *Router) offer(rk ranking, try func(leaf) error, refused *error) bool {
	for i, b := range rk.order {
		err := try(b)
		if err == nil || errors.Is(err, ErrInvalidRequest) {
			for j := i + 1; j < rk.probes; j++ {
				r.releaseProbe(rk.order[j])
			}
		}
		if err == nil {
			r.noteSubmitOK(b)
			r.noteDispatch(b, rk.preferred)
			return true
		}
		r.noteSubmitErr(b, err)
		if refusalRank(err) >= refusalRank(*refused) {
			*refused = err
		}
		if errors.Is(err, ErrInvalidRequest) {
			return false
		}
	}
	return false
}

// refusalRank orders the refusals a dispatch may report: an invalid
// request over a full queue (the caller should back off and retry), a
// full queue over a request that can never fit, and that over a
// stopped replica or anything else. Within a rank the latest refusal
// wins.
func refusalRank(err error) int {
	switch {
	case errors.Is(err, ErrInvalidRequest):
		return 3
	case errors.Is(err, ErrQueueFull):
		return 2
	case errors.Is(err, ErrNeverFits):
		return 1
	}
	return 0
}

// Stats returns the fleet-wide aggregate: the replicas folded by
// aggregateStats, plus this router's own counters. Submitted and
// Rejected are counted at the router, not summed: a failover probe
// into a full replica is not a client-visible rejection.
func (r *Router) Stats() Stats {
	agg, _ := r.Snapshot()
	return agg
}

// Snapshot returns the fleet aggregate and the per-replica breakdown
// computed from one pass over the replicas, so the breakdown always
// sums to the aggregate it is served alongside.
func (r *Router) Snapshot() (Stats, []Stats) {
	per := r.ReplicaStats()
	agg := aggregateStats(per)
	agg.Submitted = r.submitted.Load()
	agg.Rejected = r.rejected.Load()
	// Affinity and health outcomes are decided here, at the router; a
	// server reports 0 for each of them.
	agg.PrefixAffinityHits += r.affinityHits.Load()
	agg.AffinitySpills += r.affinitySpills.Load()
	if r.health != nil {
		// Resurrections abandoned at this router (budget exhausted,
		// nowhere to go) were delivered as failures here, so they fold
		// into the fleet's Failed — no replica's own snapshot ever
		// counted them.
		agg.HealthEnabled = true
		agg.Ejections += r.ejections.Load()
		agg.HealthProbes += r.healthProbes.Load()
		agg.Reinstatements += r.reinstatements.Load()
		agg.Resurrections += r.resurrections.Load()
		exhausted := r.retryExhausted.Load()
		agg.RetryExhausted += exhausted
		agg.Failed += exhausted
		for i := range r.replicas {
			switch HealthState(per[i].HealthState) {
			case HealthDegraded:
				agg.ReplicasDegraded++
			case HealthEjected, HealthProbing:
				agg.ReplicasEjected++
			default:
				agg.ReplicasHealthy++
			}
		}
	}
	return agg, per
}

// ReplicaStats snapshots every replica, in router order — the
// per-replica breakdown behind a routed /v1/stats. With health-aware
// routing on, each snapshot is annotated with the replica's current
// breaker state.
func (r *Router) ReplicaStats() []Stats {
	out := make([]Stats, len(r.replicas))
	for i, b := range r.replicas {
		out[i] = b.Stats()
		if r.health != nil {
			state, _ := r.classify(b, &out[i], false)
			out[i].HealthState = string(state)
		}
	}
	return out
}

// Stop drains every replica concurrently and joins their errors.
func (r *Router) Stop(ctx context.Context) error {
	errs := make([]error, len(r.replicas))
	var wg sync.WaitGroup
	for i, b := range r.replicas {
		wg.Add(1)
		go func(i int, b leaf) {
			defer wg.Done()
			errs[i] = b.Stop(ctx)
		}(i, b)
	}
	wg.Wait()
	return errors.Join(errs...)
}
