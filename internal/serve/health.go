package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Health-aware routing (docs/robustness.md): EnableHealth gives the
// router a per-replica breaker state machine
//
//	healthy → degraded → ejected → (half-open probe) → healthy
//
// driven entirely by dispatch outcomes and stats snapshots the router
// already observes. Consecutive submit failures trip the breaker
// (ejected replicas drop out of ranking — including affinity and
// handoff candidates); an elevated error rate or a step-time EWMA past
// its bound demotes a replica to degraded (ranked only behind every
// healthy candidate); ejected replicas are re-admitted through
// half-open probes — every ProbeEvery router submissions, one real
// request is trialled on the ejected replica, reinstating it on
// success and re-arming the breaker on failure.
//
// EnableHealth also arms request resurrection: a dying replica (crash,
// hang, dropped handoff) hands its lost requests back to the router,
// which resubmits each one to another replica with a bounded retry
// budget and a deterministic virtual-time backoff. Scheduler ids are
// minted from one fleet-shared counter and terminal delivery is a CAS
// (serve.go), so a resurrected duplicate racing its limping original
// is harmless: exactly one outcome reaches the client.

// HealthState names a replica's position in the router's breaker state
// machine, surfaced per replica as Stats.HealthState.
type HealthState string

// The breaker states.
const (
	HealthHealthy  HealthState = "healthy"
	HealthDegraded HealthState = "degraded"
	HealthEjected  HealthState = "ejected"
	HealthProbing  HealthState = "probing"
)

// HealthConfig tunes the router's health state machine and retry
// policy. The zero value selects sane defaults for every field.
type HealthConfig struct {
	// MaxConsecutiveFailures trips the breaker: this many submit
	// failures in a row ejects the replica from ranking. Default 3.
	MaxConsecutiveFailures int
	// MaxErrorRate demotes a replica to degraded when its recent
	// dispatch failure rate exceeds it (over at least MinSamples
	// outcomes). Degraded replicas rank behind every healthy one.
	// Default 0.5.
	MaxErrorRate float64
	// MinSamples is the fewest recent dispatch outcomes before the
	// error rate is trusted — a single early failure must not demote a
	// cold replica. Default 8.
	MinSamples int
	// MaxStepTimeEWMA demotes a replica to degraded while its smoothed
	// iteration time (Stats.StepTimeEWMA) exceeds it — the slow-but-
	// alive detector. 0 (default) disables the bound.
	MaxStepTimeEWMA float64
	// ProbeEvery is the half-open probe cadence: an ejected replica is
	// trialled with one real submission every ProbeEvery router
	// submissions that considered it. Counted in submissions, not wall
	// time, so probe schedules replay deterministically. Default 16.
	ProbeEvery int
	// RetryBudget bounds how many times one request may be resurrected
	// after replica deaths before it fails to the client with
	// ErrRetriesExhausted. Default 3.
	RetryBudget int
	// RetryBackoff spaces resurrection attempts in virtual seconds:
	// attempt n arrives n × RetryBackoff into the rescuing replica's
	// virtual future. Deterministic (sim-time, never wall-time).
	// Default 0: resurrect at the rescuer's live clock.
	RetryBackoff float64
}

func (cfg *HealthConfig) defaults() {
	if cfg.MaxConsecutiveFailures == 0 {
		cfg.MaxConsecutiveFailures = 3
	}
	if cfg.MaxErrorRate == 0 {
		cfg.MaxErrorRate = 0.5
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 8
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = 16
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 3
	}
}

// healthWindow bounds the recent-outcome counters: when the window
// fills, both counters halve, so the error rate is an exponentially
// decayed recent estimate instead of a lifetime average that never
// forgives.
const healthWindow = 32

// replicaHealth is one replica's breaker state. All fields behind mu.
type replicaHealth struct {
	mu          sync.Mutex
	ejected     bool
	probing     bool // a half-open trial is being dispatched right now
	consecFails int
	sinceEject  int // router submissions since ejection (probe cadence)
	recentFails int
	recentCount int
}

// EnableHealth turns on the health state machine and request
// resurrection for every subsequent Submit. Call it during fleet
// assembly, before Start and before traffic — it rewires every
// *Server replica onto one fleet-shared id counter (so resurrection
// can mint non-colliding scheduler ids) and installs the resurrection
// hook; neither is synchronised against in-flight submissions.
// Breaker tracking covers every replica Backend; resurrection requires
// *Server replicas (lost requests can only be resubmitted to leaf
// servers this router owns).
func (r *Router) EnableHealth(cfg HealthConfig) error {
	if cfg.MaxConsecutiveFailures < 0 {
		return fmt.Errorf("serve: health MaxConsecutiveFailures must be >= 0, got %d", cfg.MaxConsecutiveFailures)
	}
	if math.IsNaN(cfg.MaxErrorRate) || cfg.MaxErrorRate < 0 || cfg.MaxErrorRate > 1 {
		return fmt.Errorf("serve: health MaxErrorRate must be in [0, 1], got %v", cfg.MaxErrorRate)
	}
	if cfg.MinSamples < 0 {
		return fmt.Errorf("serve: health MinSamples must be >= 0, got %d", cfg.MinSamples)
	}
	if math.IsNaN(cfg.MaxStepTimeEWMA) || math.IsInf(cfg.MaxStepTimeEWMA, 0) || cfg.MaxStepTimeEWMA < 0 {
		return fmt.Errorf("serve: health MaxStepTimeEWMA must be finite and >= 0, got %v", cfg.MaxStepTimeEWMA)
	}
	if cfg.ProbeEvery < 0 {
		return fmt.Errorf("serve: health ProbeEvery must be >= 0, got %d", cfg.ProbeEvery)
	}
	if cfg.RetryBudget < 0 {
		return fmt.Errorf("serve: health RetryBudget must be >= 0, got %d", cfg.RetryBudget)
	}
	if math.IsNaN(cfg.RetryBackoff) || math.IsInf(cfg.RetryBackoff, 0) || cfg.RetryBackoff < 0 {
		return fmt.Errorf("serve: health RetryBackoff must be finite and >= 0, got %v", cfg.RetryBackoff)
	}
	cfg.defaults()
	r.health = &cfg
	r.healthMap = make(map[Backend]*replicaHealth, len(r.replicas))
	// One fleet-shared id counter, seeded past every replica's current
	// position (a pooled router has already unified them; a plain fleet
	// has per-server counters): a sequence keeps its scheduler id
	// across handoffs and resurrection mints fresh ids, so ids from
	// different replicas must never collide.
	shared := new(atomic.Int64)
	var max int64
	for _, b := range r.replicas {
		r.healthMap[b] = &replicaHealth{}
		if srv, ok := b.(*Server); ok {
			if v := srv.ids.Load(); v > max {
				max = v
			}
		}
	}
	shared.Store(max)
	for _, b := range r.replicas {
		if srv, ok := b.(*Server); ok {
			srv.ids = shared
			srv.onDeath = r.resurrect
		}
	}
	return nil
}

// HealthEnabled reports whether the health state machine is on.
func (r *Router) HealthEnabled() bool { return r.health != nil }

// healthRank builds one dispatch's candidate order under the state
// machine: due half-open probes first (the submission IS the trial),
// then the healthy candidates under the usual affinity/least-loaded
// ranking, then degraded candidates as fallback. Ejected replicas are
// excluded entirely. probes aliases ranked[:len(probes)] so the caller
// can release the probe flag of any trial the dispatch never reached.
// Liveness guard: when the whole tier is ejected with no probe due,
// every replica is tried — a fully tripped breaker must degrade to
// plain dispatch, not to guaranteed failure.
func (r *Router) healthRank(tier []Backend, req Request) (ranked []Backend, preferred Backend, probes []Backend) {
	if r.health == nil {
		ranked, preferred = r.rankForRequest(tier, req)
		return ranked, preferred, nil
	}
	healthy, degraded, probes := r.healthPartition(tier)
	if len(healthy)+len(degraded)+len(probes) == 0 {
		return rankByLoad(tier), nil, nil
	}
	ranked = append([]Backend(nil), probes...)
	var affRanked []Backend
	affRanked, preferred = r.rankForRequest(healthy, req)
	ranked = append(ranked, affRanked...)
	if len(degraded) > 0 {
		ranked = append(ranked, rankByLoad(degraded)...)
	}
	return ranked, preferred, probes
}

// healthPartition classifies a tier's replicas for one dispatch and
// advances the probe cadence of ejected ones. An untracked Backend
// (possible only before EnableHealth saw it) counts as healthy.
func (r *Router) healthPartition(tier []Backend) (healthy, degraded, probes []Backend) {
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

// noteSubmitOK records a successful dispatch: the failure streak
// resets, and a probing or ejected replica is reinstated.
func (r *Router) noteSubmitOK(b Backend) {
	h := r.healthMap[b]
	if h == nil {
		return
	}
	h.mu.Lock()
	h.consecFails = 0
	h.recentCount++
	h.decayLocked()
	reinstated := h.probing || h.ejected
	h.probing = false
	h.ejected = false
	h.mu.Unlock()
	if reinstated {
		r.reinstatements.Add(1)
	}
}

// noteSubmitErr records a failed dispatch. ErrNeverFits and
// ErrInvalidRequest are the request's fault, not the replica's, and
// never move the breaker: a probe such a request occupied proved
// nothing, so it is released and stays due. A failed probe re-arms the
// ejection; MaxConsecutiveFailures plain failures in a row trip it.
func (r *Router) noteSubmitErr(b Backend, err error) {
	if errors.Is(err, ErrNeverFits) || errors.Is(err, ErrInvalidRequest) {
		r.releaseProbe(b)
		return
	}
	h := r.healthMap[b]
	if h == nil {
		return
	}
	h.mu.Lock()
	h.consecFails++
	h.recentFails++
	h.recentCount++
	h.decayLocked()
	ejected := false
	if h.probing {
		h.probing = false // failed trial: stay ejected, cadence restarts
		h.sinceEject = 0
	} else if !h.ejected && h.consecFails >= r.health.MaxConsecutiveFailures {
		h.ejected = true
		h.sinceEject = 0
		ejected = true
	}
	h.mu.Unlock()
	if ejected {
		r.ejections.Add(1)
	}
}

// releaseProbe returns an undispatched trial: a dispatch that marked
// this replica probing succeeded earlier in its ranking, so the trial
// never ran. The replica stays ejected and is due again immediately.
func (r *Router) releaseProbe(b Backend) {
	h := r.healthMap[b]
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.probing {
		h.probing = false
		h.sinceEject = r.health.ProbeEvery
	}
	h.mu.Unlock()
}

// liveCandidates filters a tier down to its non-ejected replicas for
// dispatch paths that rank but never probe (handoff dispatch). Probe
// cadences are untouched — a handoff is not a half-open trial. The
// liveness guard applies: a fully ejected tier is returned whole.
func (r *Router) liveCandidates(tier []Backend) []Backend {
	if r.health == nil {
		return tier
	}
	live := make([]Backend, 0, len(tier))
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

// decayLocked halves the recent-outcome counters when the window
// fills. Caller holds h.mu.
func (h *replicaHealth) decayLocked() {
	if h.recentCount >= healthWindow {
		h.recentCount /= 2
		h.recentFails /= 2
	}
}

// healthStateOf classifies a replica for the stats surface, reusing an
// already-taken snapshot for the step-time bound.
func (r *Router) healthStateOf(b Backend, st *Stats) HealthState {
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

// resurrect is the Server.onDeath hook: a dying replica hands over the
// requests it lost, and the router resubmits each one elsewhere. Runs
// on the dying replica's scheduler goroutine; the lost set arrives
// sorted by scheduler id, and targets are ranked once per batch, so a
// scripted crash resurrects identically on every replay. Requests past
// the retry budget — and requests no live replica will take — fail to
// the client with ErrRetriesExhausted, counted in Stats.RetryExhausted
// and folded into the fleet's Failed.
func (r *Router) resurrect(from *Server, lost []*call) {
	cfg := r.health
	targets := r.resurrectTargets(from)
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

// resurrectTargets ranks the live rescue candidates for a dying
// replica's lost requests: every non-ejected *Server in tier order,
// least-loaded first, excluding the dead replica. When the breaker has
// everything ejected, every live server is tried anyway (the liveness
// guard again). Probe cadences are not advanced — resurrection is
// rescue traffic, not trial traffic.
func (r *Router) resurrectTargets(from *Server) []*Server {
	pick := func(includeEjected bool) []*Server {
		var out []*Server
		for _, tier := range r.tiers() {
			for _, b := range rankByLoad(tier) {
				srv, ok := b.(*Server)
				if !ok || srv == from {
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
				out = append(out, srv)
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
