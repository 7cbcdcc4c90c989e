package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"zipserv/internal/engine"
	"zipserv/internal/kvcache"
)

// The dispatch reference: the seven helpers and three offer loops the
// router dispatched through before Submit, handoff dispatch and
// resurrection shared one rank and one offer loop (router.go), kept
// here as the oracle FuzzDispatchRankEquivalence checks that pair
// against. The helpers are the originals renamed, with three edits:
// the stale-digest guard is gone from refRankForRequest (its config
// knob and counter no longer exist), refRankForRequest breaks a load
// tie toward the digest advertising fewer blocks before free blocks
// (so new prefixes spread over an idle fleet), and refResurrectTargets
// considers every replica but the dead one rather than only *Server
// replicas, so stub fleets can stand in.

// refRankByLoad orders backends least-loaded first by their Stats
// snapshots: fewest queued+active requests, then most free KV blocks.
func refRankByLoad(backends []leaf) []leaf {
	type candidate struct {
		b    leaf
		load int
		free int
	}
	cands := make([]candidate, 0, len(backends))
	for _, b := range backends {
		st := b.Stats()
		cands = append(cands, candidate{b: b, load: st.Queued + st.Active, free: st.FreeKVBlocks})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].free > cands[j].free
	})
	out := make([]leaf, len(cands))
	for i, c := range cands {
		out[i] = c.b
	}
	return out
}

// refAffinityCandidate is one replica's scored view for a dispatch.
type refAffinityCandidate struct {
	b           leaf
	idx         int // original tier index, the final determinism tie-break
	load        int // queued+active
	cached      int // trie blocks the digest advertises
	free        int // free KV blocks
	overlap     int // estimated cached prompt tokens from the trie digest
	blockTokens int // the candidate's digest granularity (0 = no digest)
	idle        bool
}

// refRankForRequest orders a tier for one request. Without affinity (or
// without prompt tokens) it is plain least-loaded ranking and preferred
// is nil. With affinity it snapshots each candidate once, scores the
// estimated prefix overlap against the request, and — when some
// candidate's overlap clears MinOverlapTokens — puts the best
// in-band-and-fitting one first. preferred then names the replica the
// request *wants* (the best overlap, in or out of band): landing there
// counts as an affinity hit, landing anywhere else as a spill.
func (r *Router) refRankForRequest(tier []leaf, req Request) (ranked []leaf, preferred leaf) {
	if r.affinity == nil || len(req.Prompt) == 0 {
		return refRankByLoad(tier), nil
	}
	cfg := r.affinity
	// PromptLen may be omitted when tokens are given (Server.Submit
	// defaults it later); score with the effective length.
	promptLen := req.PromptLen
	if promptLen == 0 {
		promptLen = len(req.Prompt)
	}
	longPrompt := promptLen >= cfg.LongPromptTokens

	cands := make([]refAffinityCandidate, 0, len(tier))
	hashed := make(map[int]kvcache.HashedPrompt, 1) // per block granularity
	minLoad := -1
	for i, b := range tier {
		st := b.Stats()
		c := refAffinityCandidate{
			b: b, idx: i,
			load: st.Queued + st.Active,
			free: st.FreeKVBlocks,
			// Budget pinned at the controller ceiling = the adaptive
			// controller's idle operating point: the loop has prefill
			// headroom to spare, a good home for a long prompt.
			idle: st.AdaptiveChunking && st.ChunkBudget >= engine.DefaultAdaptiveChunkMax,
		}
		if s := st.PrefixSummary; s != nil {
			hp, ok := hashed[s.BlockTokens]
			if !ok {
				hp = kvcache.HashPromptTokens(req.Prompt, s.BlockTokens)
				hashed[s.BlockTokens] = hp
			}
			c.overlap = s.MatchTokens(hp)
			c.blockTokens = s.BlockTokens
			c.cached = s.Blocks
		}
		if minLoad < 0 || c.load < minLoad {
			minLoad = c.load
		}
		cands = append(cands, c)
	}

	// The replica the request wants: best overlap, band or no band.
	// Ties break toward lower load, then tier order.
	want := -1
	for i, c := range cands {
		if c.overlap < cfg.MinOverlapTokens {
			continue
		}
		if want < 0 || c.overlap > cands[want].overlap ||
			(c.overlap == cands[want].overlap && c.load < cands[want].load) {
			want = i
		}
	}

	// Least-loaded order for everything else (and the spill path), with
	// the long-prompt idle-loop and emptiest-cache tie-breaks folded in.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		if longPrompt && cands[i].idle != cands[j].idle {
			return cands[i].idle
		}
		if cands[i].cached != cands[j].cached {
			return cands[i].cached < cands[j].cached
		}
		return cands[i].free > cands[j].free
	})

	ranked = make([]leaf, 0, len(cands))
	if want >= 0 {
		preferred = tier[want]
		pc := cands[0] // locate the wanted candidate post-sort
		for _, c := range cands {
			if c.idx == want {
				pc = c
				break
			}
		}
		// Affinity wins only in band and with room for the reservation:
		// the preferred replica moves to the front of the ranking.
		// Out of band or under the floor the dispatch deliberately
		// spills — the preferred replica is demoted to last-resort
		// failover, so the request goes somewhere with room even when
		// the starved replica is momentarily the least-loaded (failover
		// may still reach it when everything else rejects, which then
		// counts as a hit).
		bt := pc.blockTokens
		if bt <= 0 {
			bt = kvcache.DefaultBlockTokens
		}
		need := kvcache.BlocksFor(promptLen+req.OutputLen, bt)
		if pc.load <= minLoad+cfg.LoadBand && pc.free >= need && pc.free >= cfg.MinFreeBlocks {
			ranked = append(ranked, preferred)
			for _, c := range cands {
				if c.b != preferred {
					ranked = append(ranked, c.b)
				}
			}
		} else {
			for _, c := range cands {
				if c.b != preferred {
					ranked = append(ranked, c.b)
				}
			}
			ranked = append(ranked, preferred)
		}
		return ranked, preferred
	}
	for _, c := range cands {
		ranked = append(ranked, c.b)
	}
	return ranked, preferred
}

// refHealthRank builds one dispatch's candidate order under the state
// machine: due half-open probes first (the submission IS the trial),
// then the healthy candidates under the usual affinity/least-loaded
// ranking, then degraded candidates as fallback. Ejected replicas are
// excluded entirely. probes aliases ranked[:len(probes)] so the caller
// can release the probe flag of any trial the dispatch never reached.
// Liveness guard: when the whole tier is ejected with no probe due,
// every replica is tried — a fully tripped breaker must degrade to
// plain dispatch, not to guaranteed failure.
func (r *Router) refHealthRank(tier []leaf, req Request) (ranked []leaf, preferred leaf, probes []leaf) {
	if r.health == nil {
		ranked, preferred = r.refRankForRequest(tier, req)
		return ranked, preferred, nil
	}
	healthy, degraded, probes := r.refHealthPartition(tier)
	if len(healthy)+len(degraded)+len(probes) == 0 {
		return refRankByLoad(tier), nil, nil
	}
	ranked = append([]leaf(nil), probes...)
	var affRanked []leaf
	affRanked, preferred = r.refRankForRequest(healthy, req)
	ranked = append(ranked, affRanked...)
	if len(degraded) > 0 {
		ranked = append(ranked, refRankByLoad(degraded)...)
	}
	return ranked, preferred, probes
}

// refHealthPartition classifies a tier's replicas for one dispatch and
// advances the probe cadence of ejected ones. An untracked replica
// (possible only before EnableHealth saw it) counts as healthy.
func (r *Router) refHealthPartition(tier []leaf) (healthy, degraded, probes []leaf) {
	cfg := r.health
	for _, b := range tier {
		h := r.healthMap[b]
		if h == nil {
			healthy = append(healthy, b)
			continue
		}
		h.mu.Lock()
		if h.probing {
			// Another dispatch is mid-trial on this replica; keep it out
			// of ranking until the trial's outcome lands.
			h.mu.Unlock()
			continue
		}
		if h.ejected {
			h.sinceEject++
			due := cfg.ProbeEvery > 0 && h.sinceEject >= cfg.ProbeEvery
			if due {
				h.sinceEject = 0
				h.probing = true
			}
			h.mu.Unlock()
			if due {
				r.healthProbes.Add(1)
				probes = append(probes, b)
			}
			continue
		}
		degradedNow := h.recentCount >= cfg.MinSamples &&
			float64(h.recentFails) > cfg.MaxErrorRate*float64(h.recentCount)
		h.mu.Unlock()
		if !degradedNow && cfg.MaxStepTimeEWMA > 0 {
			if st := b.Stats(); st.StepTimeEWMA > cfg.MaxStepTimeEWMA {
				degradedNow = true
			}
		}
		if degradedNow {
			degraded = append(degraded, b)
		} else {
			healthy = append(healthy, b)
		}
	}
	return healthy, degraded, probes
}

// refLiveCandidates filters a tier down to its non-ejected replicas for
// dispatch paths that rank but never probe (handoff dispatch). Probe
// cadences are untouched — a handoff is not a half-open trial. The
// liveness guard applies: a fully ejected tier is returned whole.
func (r *Router) refLiveCandidates(tier []leaf) []leaf {
	if r.health == nil {
		return tier
	}
	live := make([]leaf, 0, len(tier))
	for _, b := range tier {
		h := r.healthMap[b]
		if h != nil {
			h.mu.Lock()
			out := h.ejected || h.probing
			h.mu.Unlock()
			if out {
				continue
			}
		}
		live = append(live, b)
	}
	if len(live) == 0 {
		return tier
	}
	return live
}

// refHealthStateOf classifies a replica for the stats surface, reusing
// an already-taken snapshot for the step-time bound.
func (r *Router) refHealthStateOf(b leaf, st *Stats) HealthState {
	cfg := r.health
	h := r.healthMap[b]
	if h == nil {
		return HealthHealthy
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case h.probing:
		return HealthProbing
	case h.ejected:
		return HealthEjected
	case h.recentCount >= cfg.MinSamples &&
		float64(h.recentFails) > cfg.MaxErrorRate*float64(h.recentCount):
		return HealthDegraded
	case cfg.MaxStepTimeEWMA > 0 && st != nil && st.StepTimeEWMA > cfg.MaxStepTimeEWMA:
		return HealthDegraded
	}
	return HealthHealthy
}

// refResurrectTargets ranks the live rescue candidates for a dying
// replica's lost requests: every non-ejected replica in tier order,
// least-loaded first, excluding the dead replica. When the breaker has
// everything ejected, every live replica is tried anyway (the liveness
// guard again). Probe cadences are not advanced — resurrection is
// rescue traffic, not trial traffic.
func (r *Router) refResurrectTargets(from leaf) []leaf {
	pick := func(includeEjected bool) []leaf {
		var out []leaf
		for _, tier := range r.tiers {
			for _, b := range refRankByLoad(tier) {
				if b == from {
					continue
				}
				if !includeEjected {
					if h := r.healthMap[b]; h != nil {
						h.mu.Lock()
						ejected := h.ejected
						h.mu.Unlock()
						if ejected {
							continue
						}
					}
				}
				out = append(out, b)
			}
		}
		return out
	}
	targets := pick(false)
	if len(targets) == 0 {
		targets = pick(true)
	}
	return targets
}

// refSubmit is the reference Router.Submit: rank each tier with
// refHealthRank and fail over down it.
func (r *Router) refSubmit(req Request) (*Ticket, error) {
	var queueFull, neverFits, lastErr error
	for _, tier := range r.tiers {
		ranked, preferred, probes := r.refHealthRank(tier, req)
		for i, b := range ranked {
			tk, err := b.Submit(req)
			if err == nil || errors.Is(err, ErrInvalidRequest) {
				// Any due probe this dispatch never reached stays due:
				// release its trial flag before returning.
				for j := i + 1; j < len(probes); j++ {
					r.releaseProbe(probes[j])
				}
			}
			if err == nil {
				r.submitted.Add(1)
				r.noteDispatch(b, preferred)
				r.noteSubmitOK(b)
				return tk, nil
			}
			r.noteSubmitErr(b, err)
			switch {
			case errors.Is(err, ErrInvalidRequest):
				r.rejected.Add(1)
				return nil, err
			case errors.Is(err, ErrQueueFull):
				queueFull = err
			case errors.Is(err, ErrNeverFits):
				neverFits = err
			default:
				lastErr = err
			}
		}
	}
	r.rejected.Add(1)
	if queueFull != nil {
		return nil, queueFull
	}
	if neverFits != nil {
		return nil, neverFits
	}
	if lastErr == nil {
		lastErr = ErrStopped // empty dispatch tiers: nothing was tried
	}
	return nil, lastErr
}

// refOfferHandoff is the reference handoff offer loop over a given
// ranking of decode replicas.
func (r *Router) refOfferHandoff(ranked []leaf, preferred leaf, h *handoff) error {
	err := fmt.Errorf("serve: no decode replica accepted the handoff")
	for _, b := range ranked {
		if e := b.acceptHandoff(h); e == nil {
			r.noteSubmitOK(b)
			r.noteDispatch(b, preferred)
			return nil
		} else {
			r.noteSubmitErr(b, e)
			err = e
		}
	}
	return err
}

// refResurrectOver is the reference resurrection loop over a given
// ranking of rescue targets.
func (r *Router) refResurrectOver(targets []leaf, lost []*call) {
	cfg := r.health
	for _, c := range lost {
		if c.done.Load() {
			continue // a duplicate already delivered; nothing to save
		}
		n := int(c.retries.Load())
		if n >= cfg.RetryBudget {
			if c.finish(Result{Err: fmt.Errorf("%w (%d attempts)", ErrRetriesExhausted, n)}) {
				r.retryExhausted.Add(1)
			}
			continue
		}
		c.retries.Add(1)
		c.backoff = cfg.RetryBackoff * float64(n+1)
		delivered := false
		for _, srv := range targets {
			err := srv.resubmit(c)
			if err == nil {
				r.noteSubmitOK(srv)
				r.resurrections.Add(1)
				delivered = true
				break
			}
			r.noteSubmitErr(srv, err)
		}
		if !delivered {
			if c.finish(Result{Err: fmt.Errorf("%w: no replica accepted the resurrection", ErrRetriesExhausted)}) {
				r.retryExhausted.Add(1)
			}
		}
	}
}

// refDegradedLast is the reference for the intended change to handoff
// and rescue ranking: the tier minus ejected and mid-probe replicas,
// healthy ones ranked as refRankForRequest ranks them and degraded ones
// after them least-loaded — the order refHealthRank gives a Submit,
// without arming probes. ranked is nil when nothing is left.
func (r *Router) refDegradedLast(tier []leaf, req Request) (ranked []leaf, preferred leaf, degraded int) {
	var healthy, slow []leaf
	for _, b := range tier {
		st := b.Stats()
		switch r.refHealthStateOf(b, &st) {
		case HealthHealthy:
			healthy = append(healthy, b)
		case HealthDegraded:
			slow = append(slow, b)
		}
	}
	if len(healthy)+len(slow) == 0 {
		return nil, nil, 0
	}
	ranked, preferred = r.refRankForRequest(healthy, req)
	return append(ranked, refRankByLoad(slow)...), preferred, len(slow)
}

// fleetStub is a scripted replica for dispatch tests: a fixed Stats
// snapshot that counts how often it is read, and one refusal (nil to
// accept) returned to every Submit, handoff and resubmission offered
// to it. Offers are logged by id into a log shared across the fleet,
// and an accepted one queues on the snapshot, so the next dispatch
// ranks on the moved load.
type fleetStub struct {
	id     int
	st     Stats
	refuse error
	log    *[]int
	snaps  int
	ticket Ticket
}

func (s *fleetStub) Start()                     {}
func (s *fleetStub) Stop(context.Context) error { return nil }
func (s *fleetStub) Stats() Stats {
	s.snaps++
	return s.st
}
func (s *fleetStub) Submit(Request) (*Ticket, error) {
	if err := s.take(); err != nil {
		return nil, err
	}
	s.ticket.ID = s.id
	return &s.ticket, nil
}
func (s *fleetStub) acceptHandoff(*handoff) error { return s.take() }
func (s *fleetStub) resubmit(*call) error         { return s.take() }

func (s *fleetStub) take() error {
	if s.log != nil {
		*s.log = append(*s.log, s.id)
	}
	if s.refuse == nil {
		s.st.Queued++
	}
	return s.refuse
}

// stubFleet builds a router over stubs, split into a submit and a
// decode tier at split when split > 0 (the pooled shape), with one
// shared offer log.
func stubFleet(t testing.TB, stats []Stats, split int) (*Router, []*fleetStub, *[]int) {
	t.Helper()
	log := new([]int)
	stubs := make([]*fleetStub, len(stats))
	backends := make([]Backend, len(stats))
	for i, st := range stats {
		stubs[i] = &fleetStub{id: i, st: st, log: log}
		backends[i] = stubs[i]
	}
	r, err := NewRouter(backends...)
	if err != nil {
		t.Fatal(err)
	}
	if split > 0 {
		r.tiers = [][]leaf{r.replicas[:split], r.replicas[split:]}
	}
	return r, stubs, log
}

// breakerSpec is one replica's scripted breaker state.
type breakerSpec struct {
	ejected, probing                                  bool
	consecFails, sinceEject, recentFails, recentCount int
}

func (b breakerSpec) apply(h *replicaHealth) {
	h.ejected, h.probing = b.ejected, b.probing
	h.consecFails, h.sinceEject = b.consecFails, b.sinceEject
	h.recentFails, h.recentCount = b.recentFails, b.recentCount
}

func breakerOf(h *replicaHealth) breakerSpec {
	h.mu.Lock()
	defer h.mu.Unlock()
	return breakerSpec{h.ejected, h.probing, h.consecFails, h.sinceEject, h.recentFails, h.recentCount}
}

func stubIDs(bs []leaf) []int {
	ids := make([]int, len(bs))
	for i, b := range bs {
		ids[i] = b.(*fleetStub).id
	}
	return ids
}

// FuzzDispatchRankEquivalence drives two identical stub fleets from one
// seed — random loads, free blocks, prefix digests, idle chunk budgets,
// step-time EWMAs, breaker states and probe cadences, on plain and
// pooled routers, under every affinity × health combination — through
// rounds of submissions, handoffs and resurrections with no, short and
// long prompts. One fleet dispatches through the router (rank and
// offer), the other through the reference above, and every round must
// leave both with the same offers, result, counters, breaker states and
// health states. Submissions must match the reference exactly.
// Handoffs and resurrections must match the reference's own paths
// except where a degraded replica now ranks behind healthy ones — and,
// for a handoff whose whole decode tier is ejected, where the liveness
// guard now ranks least-loaded as Submit's always did instead of
// affinity-scoring the ejected set; there they must match
// refDegradedLast.
func FuzzDispatchRankEquivalence(f *testing.F) {
	for mode := uint8(0); mode < 16; mode++ {
		f.Add(uint64(mode)*7919+1, uint8(mode%6+1), mode)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n, mode uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		count := int(n%6) + 1
		split := 0
		if mode&1 != 0 && count >= 2 {
			split = 1 + rng.Intn(count-1) // pooled: both tiers non-empty
		}
		withAffinity, withHealth := mode&2 != 0, mode&4 != 0

		// Three tenants' 48-token system prompts; each replica's digest
		// advertises a random subset of them.
		tenants := [][]int{seqTokens(48, 11), seqTokens(48, 12), seqTokens(48, 13)}
		digests := make([]*kvcache.PrefixSummary, 8)
		for mask := range digests {
			var prompts [][]int
			for k, p := range tenants {
				if mask&(1<<k) != 0 {
					prompts = append(prompts, p)
				}
			}
			digests[mask] = summaryOf(t, prompts...)
		}
		aff := AffinityConfig{LoadBand: rng.Intn(4), MinFreeBlocks: 8 * rng.Intn(3),
			MinOverlapTokens: 16 * rng.Intn(3), LongPromptTokens: 64}
		hc := HealthConfig{MaxConsecutiveFailures: 1 + rng.Intn(3), MinSamples: 1 + rng.Intn(8),
			MaxErrorRate: 0.25 * float64(1+rng.Intn(3)), ProbeEvery: 1 + rng.Intn(3), RetryBudget: 1 + rng.Intn(3)}
		if mode&8 != 0 {
			hc.MaxStepTimeEWMA = 1
		}
		stats := make([]Stats, count)
		breakers := make([]breakerSpec, count)
		for i := range stats {
			st := Stats{Queued: rng.Intn(4), Active: rng.Intn(4), FreeKVBlocks: rng.Intn(40),
				StepTimeEWMA: 0.75 * float64(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				// The shape Server.publish writes: min = max = budget.
				st.AdaptiveChunking = true
				st.ChunkBudget = []int{256, 2048}[rng.Intn(2)]
				st.ChunkBudgetMin, st.ChunkBudgetMax = st.ChunkBudget, st.ChunkBudget
			}
			if rng.Intn(4) > 0 {
				st.PrefixSummary = digests[rng.Intn(len(digests))]
			}
			stats[i] = st
			b := &breakers[i]
			if rng.Intn(4) == 0 {
				b.ejected, b.probing = true, rng.Intn(3) == 0
				b.sinceEject = rng.Intn(1 + hc.ProbeEvery)
			} else {
				b.consecFails = rng.Intn(1 + hc.MaxConsecutiveFailures)
				b.recentCount = rng.Intn(17)
				b.recentFails = rng.Intn(b.recentCount + 1)
			}
		}
		build := func() (*Router, []*fleetStub, *[]int) {
			r, stubs, log := stubFleet(t, stats, split)
			if withAffinity {
				if err := r.EnableAffinity(aff); err != nil {
					t.Fatal(err)
				}
			}
			if withHealth {
				if err := r.EnableHealth(hc); err != nil {
					t.Fatal(err)
				}
				for i, s := range stubs {
					breakers[i].apply(r.healthMap[s])
				}
			}
			return r, stubs, log
		}
		rA, stubsA, logA := build() // rank + offer
		rB, stubsB, logB := build() // the reference

		checkState := func(round int, what string) {
			t.Helper()
			counters := func(r *Router) []int64 {
				return []int64{r.submitted.Load(), r.rejected.Load(), r.affinityHits.Load(), r.affinitySpills.Load(),
					r.ejections.Load(), r.healthProbes.Load(), r.reinstatements.Load(), r.resurrections.Load(),
					r.retryExhausted.Load()}
			}
			if a, b := counters(rA), counters(rB); !slices.Equal(a, b) {
				t.Fatalf("round %d (%s): router counters %v, reference %v", round, what, a, b)
			}
			for i := range stubsA {
				if stubsA[i].st.Queued != stubsB[i].st.Queued {
					t.Fatalf("round %d (%s): replica %d queued %d, reference %d", round, what, i, stubsA[i].st.Queued, stubsB[i].st.Queued)
				}
				if !withHealth {
					continue
				}
				if a, b := breakerOf(rA.healthMap[stubsA[i]]), breakerOf(rB.healthMap[stubsB[i]]); a != b {
					t.Fatalf("round %d (%s): replica %d breaker %+v, reference %+v", round, what, i, a, b)
				}
				stA, stB := stubsA[i].st, stubsB[i].st
				if a, _ := rA.classify(stubsA[i], &stA, false); a != rB.refHealthStateOf(stubsB[i], &stB) {
					t.Fatalf("round %d (%s): replica %d classified %q, reference %q", round, what, i, a, rB.refHealthStateOf(stubsB[i], &stB))
				}
			}
		}
		checkState(-1, "setup")

		for round := 0; round < 24; round++ {
			kind := rng.Intn(3) // 0 submit, 1 handoff, 2 resurrection
			if kind == 1 && split == 0 || kind == 2 && !withHealth {
				kind = 0
			}
			var req Request
			switch rng.Intn(3) {
			case 0:
				req = Request{PromptLen: 16 + rng.Intn(200)}
			case 1: // short: part of a tenant prompt, under LongPromptTokens
				p := tenants[rng.Intn(len(tenants))][:16*(1+rng.Intn(3))]
				req = Request{Prompt: append(append([]int(nil), p...), seqTokens(rng.Intn(16), 50+round)...)}
			default: // long: a whole tenant prompt and a tail, at least LongPromptTokens
				p := tenants[rng.Intn(len(tenants))]
				req = Request{Prompt: append(append([]int(nil), p...), seqTokens(16+rng.Intn(64), 50+round)...)}
			}
			req.OutputLen = 1 + rng.Intn(64)
			// Handoffs and resubmissions only ever refuse full or stopped;
			// submissions may also refuse never-fits and, rarely, invalid.
			refusals := []error{nil, ErrQueueFull, ErrStopped}
			if kind == 0 {
				refusals = append(refusals, ErrNeverFits, nil, ErrQueueFull)
				if rng.Intn(8) == 0 {
					refusals = append(refusals, ErrInvalidRequest)
				}
			}
			allRefuse := rng.Intn(3) == 0 // the full ranking shows in the log
			for i := range stubsA {
				e := refusals[rng.Intn(len(refusals))]
				for allRefuse && e == nil {
					e = refusals[rng.Intn(len(refusals))]
				}
				stubsA[i].refuse, stubsB[i].refuse = e, e
			}
			*logA, *logB = (*logA)[:0], (*logB)[:0]

			what := fmt.Sprintf("kind %d, prompt %d/%d", kind, req.PromptLen, len(req.Prompt))
			switch kind {
			case 0:
				tkA, errA := rA.Submit(req)
				tkB, errB := rB.refSubmit(req)
				if (tkA == nil) != (tkB == nil) || tkA != nil && tkA.ID != tkB.ID || errA != errB {
					t.Fatalf("round %d (%s): submit got %v/%v, reference %v/%v", round, what, tkA, errA, tkB, errB)
				}
			case 1:
				promptLen := req.PromptLen
				if promptLen == 0 {
					promptLen = len(req.Prompt)
				}
				exp := &engine.SequenceExport{Req: engine.Request{Prompt: req.Prompt, PromptLen: promptLen, OutputLen: req.OutputLen}}
				hreq := Request{Prompt: req.Prompt, PromptLen: promptLen, OutputLen: req.OutputLen}
				tier := rB.tiers[1]
				want, preferred, degraded := rB.refDegradedLast(tier, hreq)
				guard := want == nil
				if guard {
					want = refRankByLoad(tier)
				}
				if degraded == 0 && (!guard || rB.affinity == nil || len(req.Prompt) == 0) {
					parent, parentPref := rB.refRankForRequest(rB.refLiveCandidates(tier), hreq)
					if !slices.Equal(stubIDs(parent), stubIDs(want)) || parentPref != preferred {
						t.Fatalf("round %d (%s): reference handoff order %v, expected unchanged as %v",
							round, what, stubIDs(parent), stubIDs(want))
					}
				}
				errA := rA.dispatchHandoff(&handoff{exp: exp})
				errB := rB.refOfferHandoff(want, preferred, &handoff{exp: exp})
				if (errA == nil) != (errB == nil) {
					t.Fatalf("round %d (%s): handoff err %v, reference %v", round, what, errA, errB)
				}
			case 2:
				from := rng.Intn(count)
				var want []leaf
				degraded := 0
				for _, tier := range rB.tiers {
					var cands []leaf
					for _, b := range tier {
						if b != stubsB[from] {
							cands = append(cands, b)
						}
					}
					ranked, _, d := rB.refDegradedLast(cands, Request{})
					want, degraded = append(want, ranked...), degraded+d
				}
				if len(want) == 0 { // the liveness guard spans both tiers
					for _, tier := range rB.tiers {
						for _, b := range refRankByLoad(tier) {
							if b != stubsB[from] {
								want = append(want, b)
							}
						}
					}
				}
				if parent := rB.refResurrectTargets(stubsB[from]); degraded == 0 && !slices.Equal(stubIDs(parent), stubIDs(want)) {
					t.Fatalf("round %d (%s): reference rescue order %v, expected unchanged as %v",
						round, what, stubIDs(parent), stubIDs(want))
				}
				lost := func() []*call {
					var cs []*call
					for k := 0; k < 1+round%3; k++ {
						c := &call{events: make(chan Event, 8), result: make(chan Result, 1)}
						c.retries.Store(int32((round + k) % (hc.RetryBudget + 1)))
						cs = append(cs, c)
					}
					return cs
				}
				lostA, lostB := lost(), lost()
				rA.resurrect(stubsA[from], lostA)
				rB.refResurrectOver(want, lostB)
				for k := range lostA {
					if lostA[k].done.Load() != lostB[k].done.Load() || lostA[k].retries.Load() != lostB[k].retries.Load() ||
						lostA[k].backoff != lostB[k].backoff {
						t.Fatalf("round %d (%s): lost call %d diverged from the reference", round, what, k)
					}
				}
			}
			if !slices.Equal(*logA, *logB) {
				t.Fatalf("round %d (%s): offers %v, reference %v", round, what, *logA, *logB)
			}
			checkState(round, what)
		}
	})
}
