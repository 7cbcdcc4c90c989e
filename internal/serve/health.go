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
	r.healthMap = make(map[leaf]*replicaHealth, len(r.replicas))
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

// classify places replica b in the breaker state machine, judging a
// live replica's step-time bound against its snapshot st. With arm set
// (client submissions only) an ejected replica counts one more
// submission toward its probe cadence, and armed reports that this call
// made its half-open trial due: the caller's dispatch is the probe. An
// untracked replica (possible only before EnableHealth saw it), and
// every replica of a router without health routing, is healthy.
func (r *Router) classify(b leaf, st *Stats, arm bool) (state HealthState, armed bool) {
	h := r.healthMap[b]
	if h == nil {
		return HealthHealthy, false
	}
	cfg := r.health
	h.mu.Lock()
	switch {
	case h.probing:
		state = HealthProbing // another dispatch is mid-trial on it
	case h.ejected:
		state = HealthEjected
		if arm {
			h.sinceEject++
			if armed = h.sinceEject >= cfg.ProbeEvery; armed {
				h.sinceEject = 0
				h.probing = true
			}
		}
	case h.recentCount >= cfg.MinSamples && float64(h.recentFails) > cfg.MaxErrorRate*float64(h.recentCount),
		cfg.MaxStepTimeEWMA > 0 && st.StepTimeEWMA > cfg.MaxStepTimeEWMA:
		state = HealthDegraded
	default:
		state = HealthHealthy
	}
	h.mu.Unlock()
	if armed {
		r.healthProbes.Add(1)
	}
	return state, armed
}

// noteSubmitOK records a successful dispatch: the failure streak
// resets, and a probing or ejected replica is reinstated.
func (r *Router) noteSubmitOK(b leaf) {
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
func (r *Router) noteSubmitErr(b leaf, err error) {
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
func (r *Router) releaseProbe(b leaf) {
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

// decayLocked halves the recent-outcome counters when the window
// fills. Caller holds h.mu.
func (h *replicaHealth) decayLocked() {
	if h.recentCount >= healthWindow {
		h.recentCount /= 2
		h.recentFails /= 2
	}
}

// resurrect is the Server.onDeath hook: a dying replica hands over the
// requests it lost, and the router resubmits each one elsewhere. Runs
// on the dying replica's scheduler goroutine. The rescue candidates —
// every other replica, tier by tier — are ranked once per batch,
// least-loaded and never as probes (rescue traffic is not trial
// traffic), with the liveness guard spanning every tier; the lost set
// arrives sorted by scheduler id, so a scripted crash resurrects
// identically on every replay. Requests past the retry budget — and
// requests no replica will take — fail to the client with
// ErrRetriesExhausted, counted in Stats.RetryExhausted and folded into
// the fleet's Failed.
func (r *Router) resurrect(from leaf, lost []*call) {
	cfg := r.health
	tiers := make([][]leaf, len(r.tiers))
	for t, tier := range r.tiers {
		for _, b := range tier {
			if b != from {
				tiers[t] = append(tiers[t], b)
			}
		}
	}
	rk := r.rank(tiers, Request{}, false)
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
		var refused error
		if r.offer(rk, func(b leaf) error { return b.resubmit(c) }, &refused) {
			r.resurrections.Add(1)
		} else if c.finish(Result{Err: fmt.Errorf("%w: no replica accepted the resurrection", ErrRetriesExhausted)}) {
			r.retryExhausted.Add(1)
		}
	}
}
