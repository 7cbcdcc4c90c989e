package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zipserv/internal/engine"
	"zipserv/internal/kvcache"
)

// Server is the live continuous-batching scheduler for one engine
// replica. It implements Backend.
type Server struct {
	cfg      Config
	submitCh chan *call
	stop     chan struct{}
	done     chan struct{}
	// kill force-fails the drain: Stop closes it when its context
	// expires, and the loop then abandons graceful draining, failing
	// everything undelivered into Stats.Failed instead of serving it.
	kill     chan struct{}
	killOnce sync.Once

	gate    sync.RWMutex // serialises Submit sends against Stop
	stopped bool

	// onDeath, installed by Router.EnableHealth before Start, receives
	// the requests a dying replica lost (crash, hang-at-stop, dropped
	// handoff) so the router can resurrect them on another replica.
	// Nil means lost requests fail to the client.
	onDeath func(from leaf, lost []*call)

	// ids assigns request IDs. Private per server by default;
	// NewPooledRouter points every pooled replica at one shared counter,
	// because a sequence keeps its id across a prefill→decode handoff
	// and ids minted by different replicas must never collide.
	ids *atomic.Int64
	// handoffCh receives mid-generation sequences exported by a prefill
	// replica (acceptHandoff). handoffFn, set on prefill replicas by
	// NewPooledRouter before Start, dispatches an export to a decode
	// replica; nil means serve co-located.
	handoffCh chan *handoff
	handoffFn func(*handoff) error

	submitted atomic.Int64
	rejected  atomic.Int64
	startedAt atomic.Int64 // unix nanos; 0 until Start

	statsMu sync.Mutex
	stats   Stats
	recent  []time.Time // wall completion times within drainWindow

	// Prefix-summary age tracking (publish only: New's seed publish,
	// then the scheduler goroutine): the trie epoch of the last
	// published digest and the virtual clock when it changed, so publish
	// can report how stale the advertised summary is
	// (Stats.SummaryAgeSeconds).
	lastSummaryEpoch int64
	lastSummaryClock float64

	// sp is the replica's engine stepper, built by New. New's seed
	// publish reads it before Start; afterwards only the scheduler
	// goroutine touches it.
	sp *engine.Stepper

	// core is the policy's heap scheduler state (schedcore.go): every
	// queued request, eligible ones keyed at enqueue time, the running
	// batch mirrored into a deadline heap, and every per-slot decision
	// O(log n) in queue depth. Only the scheduler goroutine touches it.
	core *schedCore

	// Loop state, like sp and core read by New's seed publish and then
	// touched only by the scheduler goroutine: the running batch by
	// scheduler id (run and retire keep core's running heap in
	// step), handed-off sequences awaiting import, the counters publish
	// reports, and the iteration's claimed outcomes and lost requests,
	// held for delivery until after its publish (settle).
	inflight  map[int]*call
	pendingHO []*handoff
	agg       aggregate
	outcomes  []outcome
	lost      []*call

	startOnce sync.Once
}

// The recent-completion window sizing the RecentDrainRPS estimate.
const (
	drainWindow = 30 * time.Second
	maxRecent   = 256
)

var _ Backend = (*Server)(nil)

// New builds a live server over the engine, and the engine stepper its
// scheduler loop will own, rejecting configurations the loop has no
// defined behaviour for (negative budgets or windows, non-finite
// pacing, a KV plan with no blocks). Call Start to launch the scheduler
// goroutine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: config needs an engine")
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Policy == nil {
		cfg.Policy = FIFOPolicy{}
	}
	if cfg.AdaptiveChunking && cfg.TargetStepTime == 0 {
		cfg.TargetStepTime = DefaultTargetStepTime
	}
	sp, err := engine.NewStepper(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("serve: engine stepper: %w", err)
	}
	sp.PackedPrefill = true
	sp.PrefillChunkTokens = cfg.PrefillChunkTokens
	if cfg.Pool == PoolPrefill {
		// A prefill replica's steady state has no decode batch: run the
		// adaptive chunk controller at its decode-free operating point
		// instead of chasing a headroom that never exists.
		sp.DecodeFree = true
	}
	if cfg.AdaptiveChunking {
		if err := sp.EnableAdaptiveChunking(cfg.TargetStepTime, 0, 0); err != nil {
			return nil, err
		}
	}
	if cfg.PrefixCache {
		if err := sp.EnablePrefixCache(cfg.PrefixCacheBlocks); err != nil {
			return nil, err
		}
		if cfg.AdaptivePrefixCache {
			if err := sp.EnableAdaptivePrefixCache(0, 0); err != nil {
				return nil, err
			}
		}
		if cfg.CompressedCache {
			if err := sp.EnableCompressedCache(); err != nil {
				return nil, err
			}
		}
	}
	if f := cfg.Faults; f.active() {
		// Scripted faults are pure functions of this replica's virtual
		// clock (docs/robustness.md), so a chaos run replays
		// bit-identically: slowdown dilates every step's virtual cost,
		// and codec faults degrade cold-block freezes to plain parking.
		sp.TimeDilation = f.slowFactorAt
		if cfg.CompressedCache {
			sp.SetCodecFault(func() bool { return f.codecFailingAt(sp.Clock()) })
		}
	}
	s := &Server{
		cfg:       cfg,
		sp:        sp,
		core:      cfg.Policy.newCore(),
		submitCh:  make(chan *call, cfg.QueueDepth),
		handoffCh: make(chan *handoff, cfg.QueueDepth),
		ids:       new(atomic.Int64),
		stop:      make(chan struct{}),
		kill:      make(chan struct{}),
		done:      make(chan struct{}),
		inflight:  make(map[int]*call),
		// One backing array for the drain-rate window instead of a
		// doubling cascade on the first completions.
		recent: make([]time.Time, 0, 64),
	}
	// Seed the snapshot through publish's own field mapping, so a
	// router's capacity-aware dispatch sees real headroom before the
	// loop's first publish — even under a stalestats window that opens
	// at virtual time 0.
	s.publish()
	return s, nil
}

// validateConfig rejects scheduler parameters outside their defined
// domain with an error naming the offending field, instead of letting
// a negative chunk budget, a negative admission window, a NaN time
// scale or a negative cache bound reach the loop as undefined
// behaviour. Flag-driven callers (zipserv-server) surface these at
// startup.
func validateConfig(cfg Config) error {
	if cfg.MaxBatch < 0 {
		return fmt.Errorf("serve: MaxBatch (-max-batch) must be >= 0, got %d", cfg.MaxBatch)
	}
	if cfg.PrefillChunkTokens < 0 {
		return fmt.Errorf("serve: PrefillChunkTokens (-prefill-chunk) must be >= 0, got %d", cfg.PrefillChunkTokens)
	}
	if cfg.AdmissionWindow < 0 {
		return fmt.Errorf("serve: AdmissionWindow (-admit-window) must be >= 0, got %s", cfg.AdmissionWindow)
	}
	if math.IsNaN(cfg.TimeScale) || math.IsInf(cfg.TimeScale, 0) || cfg.TimeScale < 0 {
		return fmt.Errorf("serve: TimeScale (-time-scale) must be finite and >= 0, got %v", cfg.TimeScale)
	}
	if cfg.PrefixCacheBlocks < 0 {
		return fmt.Errorf("serve: PrefixCacheBlocks (-prefix-cache-blocks) must be >= 0, got %d", cfg.PrefixCacheBlocks)
	}
	if math.IsNaN(cfg.TargetStepTime) || math.IsInf(cfg.TargetStepTime, 0) || cfg.TargetStepTime < 0 {
		return fmt.Errorf("serve: TargetStepTime (-target-step-time) must be finite and >= 0, got %v", cfg.TargetStepTime)
	}
	if cfg.TargetStepTime > 0 && !cfg.AdaptiveChunking {
		return fmt.Errorf("serve: TargetStepTime (-target-step-time) requires AdaptiveChunking (-adaptive-chunk)")
	}
	if cfg.AdaptiveChunking && cfg.PrefillChunkTokens > 0 {
		return fmt.Errorf("serve: AdaptiveChunking (-adaptive-chunk) and PrefillChunkTokens (-prefill-chunk) are mutually exclusive")
	}
	if cfg.AdaptivePrefixCache && !cfg.PrefixCache {
		return fmt.Errorf("serve: AdaptivePrefixCache (-adaptive-prefix-cache) requires PrefixCache (-prefix-cache)")
	}
	if cfg.CompressedCache && !cfg.PrefixCache {
		return fmt.Errorf("serve: CompressedCache (-compressed-cache) requires PrefixCache (-prefix-cache)")
	}
	switch cfg.Pool {
	case "", PoolMixed, PoolPrefill, PoolDecode:
	default:
		return fmt.Errorf("serve: unknown Pool (-pool) %q, want prefill, decode or mixed", cfg.Pool)
	}
	return nil
}

// Start launches the scheduler goroutine. Idempotent: only the first
// call, Start's or Stop's, launches it.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		s.startedAt.Store(time.Now().UnixNano())
		go s.loop()
	})
}

// Stop shuts the server down gracefully: new submissions are rejected
// with ErrStopped immediately, while everything already queued or in
// flight is served to completion — on a server that was never started
// too, whose loop Stop starts so that what it accepted is served. When
// ctx expires (including a context that is already expired on entry)
// the drain is force-failed instead of abandoned: the scheduler
// promptly fails every undelivered request — callers get their error,
// Stats.Failed counts them — and Stop returns ctx.Err() once that
// accounting has landed.
func (s *Server) Stop(ctx context.Context) error {
	s.closeGate()
	s.Start()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed mid-drain: force-fail what is left. The loop
	// observes kill at its next iteration edge (or idle wakeup), fails
	// everything undelivered and exits; waiting for done here means the
	// failure accounting is published before Stop returns.
	s.killOnce.Do(func() { close(s.kill) })
	<-s.done
	return ctx.Err()
}

// Submit offers a request to the admission queue without blocking: it
// fails fast with ErrInvalidRequest on a malformed request,
// ErrQueueFull when the queue is at capacity, ErrStopped after Stop,
// or ErrNeverFits when the request exceeds the device's total KV plan.
func (s *Server) Submit(req Request) (*Ticket, error) {
	if len(req.Prompt) > 0 {
		if req.PromptLen == 0 {
			req.PromptLen = len(req.Prompt)
		} else if req.PromptLen != len(req.Prompt) {
			return nil, fmt.Errorf("%w: prompt_len %d does not match %d prompt tokens",
				ErrInvalidRequest, req.PromptLen, len(req.Prompt))
		}
	}
	if req.PromptLen <= 0 || req.OutputLen <= 0 {
		return nil, fmt.Errorf("%w: prompt/output lengths must be positive, got %d/%d",
			ErrInvalidRequest, req.PromptLen, req.OutputLen)
	}
	// A NaN arrival never reaches the clock (NaN <= now is false), so it
	// would wedge the queue head forever; +Inf would jump the clock to
	// +Inf and poison every later request's timings. A non-finite
	// deadline slips past the SLO victim guards.
	if math.IsNaN(req.Arrival) || math.IsInf(req.Arrival, 1) {
		return nil, fmt.Errorf("%w: arrival must be finite or negative (ArrivalNow), got %v",
			ErrInvalidRequest, req.Arrival)
	}
	if math.IsNaN(req.TTFTDeadline) || math.IsInf(req.TTFTDeadline, 0) {
		return nil, fmt.Errorf("%w: TTFT deadline must be finite, got %v", ErrInvalidRequest, req.TTFTDeadline)
	}
	if !s.cfg.Engine.FitsKV(req.PromptLen, req.OutputLen) {
		return nil, fmt.Errorf("%w: %d prompt + %d output tokens exceed the plan's %d KV blocks of %d",
			ErrNeverFits, req.PromptLen, req.OutputLen, s.cfg.Engine.Plan().Blocks, kvcache.DefaultBlockTokens)
	}
	arrival := req.Arrival
	if arrival < 0 {
		arrival = ArrivalNow // normalised; assigned the live clock at drain
	}
	class := req.Class
	switch class {
	case "":
		class = ClassInteractive
	case ClassInteractive, ClassBatch:
	default:
		// Reject rather than default: an unknown class would silently
		// schedule as top-priority interactive.
		return nil, fmt.Errorf("%w: unknown request class %q", ErrInvalidRequest, class)
	}
	id := int(s.ids.Add(1))
	c := &call{
		req: engine.Request{
			ID:             id,
			ArrivalSeconds: arrival,
			PromptLen:      req.PromptLen,
			OutputLen:      req.OutputLen,
			Prompt:         req.Prompt,
		},
		clientID:  id,
		class:     class,
		ttftSLO:   req.TTFTDeadline,
		submitted: time.Now(),
		events:    make(chan Event, 8),
		result:    make(chan Result, 1),
	}

	c.ticket = Ticket{ID: c.clientID, events: c.events, result: c.result}
	if err := enqueue(s, s.submitCh, c, &s.submitted); err != nil {
		if err == ErrQueueFull {
			s.rejected.Add(1)
		}
		return nil, err
	}
	return &c.ticket, nil
}

// Stats returns an aggregate snapshot. Safe for concurrent use.
func (s *Server) Stats() Stats {
	now := time.Now()
	s.statsMu.Lock()
	st := s.stats
	s.pruneRecentLocked(now)
	if n := len(s.recent); n > 0 {
		// On the first request burst every retained completion can carry
		// the same wall timestamp as this snapshot, making the window
		// span exactly zero (and clock adjustments could even drive it
		// negative) — dividing by it would publish an infinite drain
		// rate and poison the Retry-After estimate downstream. Clamp the
		// span to a 1s floor, which also keeps sub-second bursts from
		// overstating the sustained rate.
		span := now.Sub(s.recent[0]).Seconds()
		if span < 1 { // covers the zero/negative degenerate spans too
			span = 1
		}
		st.RecentDrainRPS = float64(n) / span
	}
	s.statsMu.Unlock()
	st.Submitted = s.submitted.Load()
	st.Rejected = s.rejected.Load()
	// The published snapshot counts only what the loop holds (the
	// scheduler core and pending handoffs); requests still buffered in
	// the submit and handoff channels are queued too.
	st.Queued += len(s.submitCh) + len(s.handoffCh)
	if started := s.startedAt.Load(); started != 0 {
		st.WallSeconds = time.Since(time.Unix(0, started)).Seconds()
	}
	st.derive()
	return st
}

// loop is the scheduler goroutine: admission → prefill → decode, one
// iteration at a time, until stopped and drained.
func (s *Server) loop() {
	defer close(s.done)

	sp := s.sp
	wasIdle := false
	for {
		// Force-fail check first: Stop's context expired, so the drain
		// is abandoned — every undelivered request fails promptly.
		select {
		case <-s.kill:
			s.exit(fmt.Errorf("%w: drain deadline exceeded", ErrStopped), false)
			return
		default:
		}
		// Scripted death next, on this replica's own virtual clock. A
		// crash loses everything the replica holds at once. A hang is a
		// livelock: the replica stays up (submissions keep landing until
		// the queue fills, nothing completes, stats freeze) and loses
		// what it holds only when stopped, like a real wedged process.
		if f := s.cfg.Faults; f.active() {
			if f.crashedAt(sp.Clock()) {
				s.exit(fmt.Errorf("%w: replica crashed", ErrStopped), true)
				return
			}
			if f.hungAt(sp.Clock()) {
				select {
				case <-s.stop:
				case <-s.kill:
				}
				s.exit(fmt.Errorf("%w: replica hung", ErrStopped), true)
				return
			}
		}
		// Observe idleness before draining the channels: whatever the
		// drain below (or the blocking select) picks up is then the
		// first work of a fresh batch, eligible for the admission
		// window. Re-arming anywhere later would miss bursts whose
		// first request lands between the end of one batch and the
		// next iteration's drain.
		if s.idle() {
			wasIdle = true
		}
		s.drain()

		if s.idle() {
			// Fully idle: block for the next submission, handoff or
			// shutdown.
			select {
			case c := <-s.submitCh:
				s.arrive(c)
			case h := <-s.handoffCh:
				s.pendingHO = append(s.pendingHO, h)
			case <-s.kill: // force-failed at the top of the loop
			case <-s.stop:
				// Anything that raced past the gate before Stop is
				// buffered; serve it before exiting.
				s.drain()
				if s.idle() {
					return
				}
			}
			continue
		}
		s.publishLoad()

		// First work after an idle stretch: hold the admission window
		// open so a wall-clock burst coalesces into one prefill batch.
		// The edge lives here rather than in the idle select because
		// the top-of-loop drain can win the race for a burst's first
		// submission and would otherwise bypass the window.
		if wasIdle {
			wasIdle = false
			s.coalesce()
		}

		// Land handed-off sequences before admission: an import advances
		// the clock past its transfer, which can make queued arrivals
		// eligible for the same batch.
		s.importHandoffs()
		s.admit()

		// Prefill newcomers (packed, at most one chunk budget's worth of
		// prompt tokens), then one decode iteration.
		prefilled, prefillElapsed := sp.Prefill()
		for _, m := range prefilled {
			if c := s.inflight[m.ID]; c != nil {
				c.emit(Event{Type: EventFirstToken, SimSeconds: m.FirstToken, TTFT: m.TTFT})
			}
		}
		if s.handoffFn != nil {
			s.dispatchHandoffs(prefilled)
		}
		finished, decodeElapsed, err := sp.DecodeStep()
		if err != nil {
			// Scheduler invariant broken (unreachable under the
			// conservative reservation): settle what this iteration
			// already concluded, then fail everything and halt.
			s.settle()
			s.exit(err, false)
			return
		}
		for _, m := range finished {
			if c := s.retire(m.ID); c != nil {
				s.conclude(c, Result{
					PromptLen: c.req.PromptLen, OutputLen: c.req.OutputLen,
					Arrival: m.Arrival, Admitted: m.Admitted,
					FirstToken: m.FirstToken, Finished: m.Finished,
					TTFT: m.TTFT, TPOT: m.TPOT,
					QueueWait: m.Admitted - m.Arrival, Latency: m.Latency,
					CachedTokens: m.CachedTokens,
				})
			}
		}
		// Close the admission epoch: the cache-sizing controller
		// consumes this iteration's admission outcomes and resizes the
		// cached pool before the snapshot below reports the new target.
		sp.AdaptEpoch()
		s.settle()
		s.pace(prefillElapsed + decodeElapsed)
	}
}

// idle reports whether the loop holds no work: nothing running,
// queued on the core or awaiting import.
func (s *Server) idle() bool {
	return s.sp.InFlight() == 0 && s.core.len() == 0 && len(s.pendingHO) == 0
}

// pace sleeps this iteration's virtual step duration × TimeScale so
// the virtual clock advances no faster than scaled wall time: sparse
// live arrivals land mid-flight and batch, instead of each draining
// completely before the next one arrives. Idle fast-forwards (arrival
// jumps) are never paced — only computed steps are.
func (s *Server) pace(simElapsed float64) {
	if s.cfg.TimeScale <= 0 || simElapsed <= 0 {
		return
	}
	select {
	case <-time.After(time.Duration(simElapsed * s.cfg.TimeScale * float64(time.Second))):
	case <-s.stop:
		// Draining: pacing only exists so new live arrivals can batch,
		// and Submit already rejects them — serve what's left flat out
		// instead of stretching the drain by the time scale.
	}
}

// coalesce implements the micro-batch admission window: an idle
// scheduler that just received its first live submission keeps
// draining arrivals for up to AdmissionWindow of wall time before
// scheduling, so a burst spread over a few milliseconds prefills as
// one batch. Shutdown cuts the window short; everything gathered is
// still served.
func (s *Server) coalesce() {
	if s.cfg.AdmissionWindow <= 0 {
		return
	}
	timer := time.NewTimer(s.cfg.AdmissionWindow)
	defer timer.Stop()
	for {
		select {
		case c := <-s.submitCh:
			s.arrive(c)
			s.publishLoad()
		case <-timer.C:
			return
		case <-s.stop:
			return
		}
	}
}

// admit fills the batch in Policy order: each admission slot takes the
// policy's next eligible request (arrived on the virtual clock) while
// its conservative KV reservation fits — with the policy's preemption
// hook invoked when it does not — and the batch cap allows. The
// eligible set lives on the heap core and is maintained incrementally
// (clock advances promote pending→eligible in arrival order; aged batch
// requests move rank), so each admission decision — promote, peek, pop
// — is O(log n) in queue depth and allocation-free in steady state.
func (s *Server) admit() {
	sp, sc := s.sp, s.core
	for sc.len() > 0 {
		if s.cfg.MaxBatch > 0 && sp.InFlight() >= s.cfg.MaxBatch {
			break
		}
		sc.promote(sp.Clock())
		c, ok := sc.peek()
		if !ok {
			if sp.InFlight() > 0 {
				break // future arrivals; keep decoding until then
			}
			sp.AdvanceTo(sc.nextArrival()) // idle fast-forward
			continue
		}
		if !sp.CanAdmitRequest(c.req) {
			s.makeRoom(c)
			if !sp.CanAdmitRequest(c.req) {
				if sp.InFlight() > 0 {
					break // capacity frees up as sequences finish
				}
				// Defensive guard against a spin: unreachable while
				// Submit's whole-plan check mirrors CanAdmit at an
				// empty system, but admission must always make
				// progress even if those drift apart.
				sc.pop()
				s.conclude(c, Result{Err: fmt.Errorf("%w: %d+%d tokens vs %d-block plan",
					ErrNeverFits, c.req.PromptLen, c.req.OutputLen, s.cfg.Engine.Plan().Blocks)})
				continue
			}
		}
		sc.pop()
		if err := sp.Admit(c.req); err != nil {
			s.conclude(c, Result{Err: err})
			continue
		}
		c.admittedAt = sp.Clock()
		s.run(c)
		c.emit(Event{Type: EventAdmitted, SimSeconds: sp.Clock(),
			CachedTokens: sp.CachedTokensOf(c.req.ID)})
	}
}

// makeRoom preempts the policy's victims until blocked fits or the
// policy declines. The victim is the top of the running heap; its
// sequence is evicted from the stepper (returning every KV block it
// held) and requeued through the core with its original arrival, hence
// its original rank keys, to be re-admitted — and fully recomputed —
// later.
func (s *Server) makeRoom(blocked *call) {
	sp := s.sp
	for !sp.CanAdmitRequest(blocked.req) {
		vid, ok := s.core.victim(blocked.deadline())
		if !ok {
			return
		}
		if _, ok := sp.Preempt(vid); !ok {
			return // stale view; unreachable from the loop
		}
		vc := s.retire(vid)
		vc.preempts++
		s.agg.preempted++
		vc.emit(Event{Type: EventPreempted, SimSeconds: sp.Clock()})
		s.core.add(vc)
	}
}

// run puts an admitted or imported call into the running batch: the
// inflight map and the running heap's victim mirror.
func (s *Server) run(c *call) {
	s.inflight[c.req.ID] = c
	s.core.runningAdd(c)
}

// retire takes a call out of the running batch — completion,
// preemption and every handoff outcome leave through here — and
// returns it (nil when id is not running).
func (s *Server) retire(id int) *call {
	c := s.inflight[id]
	if c != nil {
		delete(s.inflight, id)
		s.core.runningRemove(c)
	}
	return c
}

// acceptHandoff offers an exported sequence to this replica through
// the gated enqueue: ErrStopped after Stop, ErrQueueFull when the
// handoff queue is at capacity. Called from a prefill replica's
// scheduler goroutine through the pooled router's dispatch ranking.
func (s *Server) acceptHandoff(h *handoff) error {
	return enqueue(s, s.handoffCh, h, nil)
}

// dispatchHandoffs exports every sequence that just produced its first
// token and offers it to a decode replica. A successful dispatch
// transfers ownership of the call — the importing replica decodes it to
// completion and delivers the result; this server must not touch the
// call again. A failed dispatch (every decode replica stopped or full)
// falls back to co-located serving by re-importing the export into this
// same stepper, which the prefix trie makes nearly free: the blocks the
// export released are still advertised, so the claim reuses them
// instead of expanding the wire payload.
func (s *Server) dispatchHandoffs(prefilled []engine.RequestMetrics) {
	sp := s.sp
	for _, m := range prefilled {
		c := s.inflight[m.ID]
		if c == nil || c.req.OutputLen <= 1 {
			continue // nothing left to decode elsewhere
		}
		exp, err := sp.ExportSequence(m.ID)
		if err != nil {
			continue // finished during prefill; unreachable for OutputLen > 1
		}
		s.retire(m.ID)
		if s.cfg.Faults.takeDrop(sp.Clock()) {
			// Scripted transfer loss: the export left this replica (the
			// sequence and its blocks are gone from the stepper) and
			// never arrives anywhere. The request is lost exactly like a
			// crash victim's.
			s.agg.handoffDrops++
			s.lose([]*call{c}, fmt.Errorf("%w: handoff transfer dropped", ErrStopped))
			continue
		}
		bytes := exp.CompressedBytes()
		c.handoffs++ // before dispatch: the new owner may finish immediately
		if s.handoffFn(&handoff{exp: exp, c: c}) == nil {
			s.agg.handoffs++
			s.agg.handoffBytes += bytes
			continue
		}
		// Nothing crossed the wire: zero the priced transfer and thaw
		// the sequence back into this stepper.
		c.handoffs--
		s.agg.handoffFailures++
		exp.TransferSeconds = 0
		if err := sp.ImportSequence(exp); err != nil {
			// Unreachable: the export's footprint was resident here a
			// moment ago and its reservation was just released.
			s.conclude(c, Result{Err: err})
			continue
		}
		s.run(c)
	}
}

// importHandoffs lands pending handed-off sequences in the decode
// batch. A handoff whose transfer completes in this replica's virtual
// future waits while the batch keeps decoding (a busy replica never
// stalls on an in-flight transfer; an idle one fast-forwards to it);
// an import that does not fit yet is retried next iteration (capacity
// frees as sequences finish); a duplicate of a sequence already in
// flight is dropped, because the earlier copy is serving the call;
// anything else fails the request.
func (s *Server) importHandoffs() {
	sp, hos := s.sp, s.pendingHO
	keep := hos[:0]
	for _, h := range hos {
		if h.c.done.Load() {
			continue // late duplicate of an already-delivered request
		}
		if s.cfg.MaxBatch > 0 && sp.InFlight() >= s.cfg.MaxBatch {
			keep = append(keep, h)
			continue
		}
		if ready := h.exp.ExportedAt + h.exp.TransferSeconds; ready > sp.Clock() && sp.InFlight() > 0 {
			// The transfer is still in this replica's virtual future:
			// keep decoding and land the import once the clock catches
			// up, instead of stalling the running batch on a jump to the
			// ready time. Only an idle replica fast-forwards to it.
			keep = append(keep, h)
			continue
		}
		err := sp.ImportSequence(h.exp)
		switch {
		case err == nil:
			s.run(h.c)
			s.agg.handoffImports++
			h.c.emit(Event{Type: EventHandoff, SimSeconds: sp.Clock()})
		case errors.Is(err, engine.ErrSequenceInFlight):
			// Duplicate handoff: the import changed nothing; drop it.
		case errors.Is(err, engine.ErrImportNoCapacity) && sp.InFlight() > 0:
			keep = append(keep, h) // retry as the batch thins
		default:
			s.conclude(h.c, Result{Err: err})
		}
	}
	clear(hos[len(keep):]) // do not pin filtered exports via the backing array
	s.pendingHO = keep
}

// drain empties both channels without blocking: submissions onto the
// core, handoffs onto the pending list. Each select polls one channel,
// which compiles to a lock-free non-blocking receive; a two-channel
// select would lock both on every poll of the loop.
func (s *Server) drain() {
	for {
		select {
		case c := <-s.submitCh:
			s.arrive(c)
			continue
		default:
		}
		select {
		case h := <-s.handoffCh:
			s.pendingHO = append(s.pendingHO, h)
		default:
			return
		}
	}
}

// arrive stamps live submissions with the current virtual clock and
// queues them on the heap core.
func (s *Server) arrive(c *call) {
	if c.req.ArrivalSeconds < 0 {
		// A resurrected call carries a deterministic sim-time backoff
		// (retry count × the router's RetryBackoff): it arrives that far
		// into this replica's virtual future, so retries space out
		// identically on every replay.
		c.req.ArrivalSeconds = s.sp.Clock() + c.backoff
		c.backoff = 0
	}
	s.core.add(c)
}

// aggregate accumulates completion statistics inside the loop.
type aggregate struct {
	completed    int64
	failed       int64
	preempted    int64
	ttftSum      float64
	tpotSum      float64
	queueWaitSum float64

	handoffs        int64
	handoffBytes    int64
	handoffFailures int64
	handoffImports  int64

	lost         int64 // requests lost (dropped handoffs, crash, hang)
	handoffDrops int64 // scripted transfer losses
}

// outcome is one claimed terminal Result awaiting delivery.
type outcome struct {
	c   *call
	res Result
}

// publish copies a stats snapshot for concurrent readers.
func (s *Server) publish() {
	sp, agg := s.sp, &s.agg
	st := Stats{
		Completed: agg.completed,
		Failed:    agg.failed,
		Preempted: agg.preempted,
		Queued:    s.core.len() + len(s.pendingHO),
		Active:    len(s.inflight),

		FreeKVBlocks:  sp.FreeBlocks(),
		TotalKVBlocks: s.cfg.Engine.Plan().Blocks,
		Policy:        s.cfg.Policy.Name(),

		Pool:            string(s.cfg.Pool),
		Handoffs:        agg.handoffs,
		HandoffBytes:    agg.handoffBytes,
		HandoffFailures: agg.handoffFailures,
		HandoffImports:  agg.handoffImports,

		LostRequests:   agg.lost,
		HandoffDrops:   agg.handoffDrops,
		CodecFallbacks: sp.CodecFallbacks(),

		SimSeconds:      sp.Clock(),
		OutputTokens:    sp.OutputTokens(),
		DecodeSteps:     sp.DecodeSteps(),
		PeakConcurrency: sp.PeakConcurrency(),

		PrefillChunkTokens: s.cfg.PrefillChunkTokens,
		PrefillIterations:  sp.PrefillIterations(),
		PrefillTokens:      sp.PrefillTokens(),
		MaxDecodeGap:       sp.MaxDecodeGap(),

		PrefixCacheEnabled: sp.PrefixCacheEnabled(),
		PrefixHits:         sp.PrefixHits(),
		PrefixTokensSaved:  sp.PrefixTokensSaved(),
		CachedKVBlocks:     sp.CachedKVBlocks(),
		SharedKVBlocks:     sp.SharedKVBlocks(),

		CompressedCacheEnabled: sp.CompressedCacheEnabled(),
		CompressedKVBlocks:     sp.CompressedKVBlocks(),
		CompressedKVBytes:      sp.CompressedKVBytes(),
		KVCompressionRatio:     sp.KVCompressionRatio(),
		DecompressClaims:       sp.DecompressClaims(),

		AdaptiveChunking:    sp.AdaptiveChunking(),
		ChunkBudget:         sp.ChunkBudget(),
		ChunkBudgetMin:      sp.ChunkBudget(),
		ChunkBudgetMax:      sp.ChunkBudget(),
		TargetStepTime:      sp.TargetStepTime(),
		StepTimeEWMA:        sp.StepTimeEWMA(),
		AdaptivePrefixCache: sp.AdaptivePrefixCache(),
		CachePoolTarget:     sp.CachePoolTarget(),
		CacheHitRateEWMA:    sp.CacheHitRateEWMA(),
		CachePressureEWMA:   sp.CachePressureEWMA(),
	}
	// Publish the prefix-trie digest on the admission-epoch cadence
	// (publish runs right after AdaptEpoch closes the epoch). The digest
	// is memoized per trie generation, so an unchanged trie republishes
	// the same immutable pointer for free; its age is virtual time since
	// the advertised content last changed.
	if sum := sp.PrefixSummary(); sum != nil {
		if sum.Epoch != s.lastSummaryEpoch {
			s.lastSummaryEpoch = sum.Epoch
			s.lastSummaryClock = sp.Clock()
		}
		st.PrefixSummary = sum
		st.SummaryAgeSeconds = sp.Clock() - s.lastSummaryClock
	}
	if agg.completed > 0 {
		st.MeanTTFT = agg.ttftSum / float64(agg.completed)
		st.MeanTPOT = agg.tpotSum / float64(agg.completed)
		st.MeanQueueWait = agg.queueWaitSum / float64(agg.completed)
	}
	s.statsMu.Lock()
	s.stats = st
	s.statsMu.Unlock()
}

// publishLoad brings the published queue depth up to date with what
// the loop has taken off the channels since the last publish. A
// drained submission leaves the channel count that Stats adds, and a
// full publish waits for the end of an iteration — a prefill that
// thaws and encodes compressed blocks, or a whole admission window —
// so without this the replica would advertise its pre-arrival load
// all that time and a router would keep ranking it idle.
func (s *Server) publishLoad() {
	q := s.core.len() + len(s.pendingHO)
	if q == s.stats.Queued || s.cfg.Faults.statsStaleAt(s.sp.Clock()) {
		return // unchanged, or frozen by a scripted stalestats window
	}
	s.statsMu.Lock()
	s.stats.Queued = q
	s.statsMu.Unlock()
}

// noteCompletions stamps n wall-clock completions into the recent
// window behind the RecentDrainRPS estimate.
func (s *Server) noteCompletions(n int) {
	now := time.Now()
	s.statsMu.Lock()
	for i := 0; i < n; i++ {
		s.recent = append(s.recent, now)
	}
	s.pruneRecentLocked(now)
	s.statsMu.Unlock()
}

// pruneRecentLocked drops completion stamps outside drainWindow and
// bounds the window length. Callers hold statsMu.
func (s *Server) pruneRecentLocked(now time.Time) {
	cutoff := now.Add(-drainWindow)
	i := 0
	for i < len(s.recent) && s.recent[i].Before(cutoff) {
		i++
	}
	if over := len(s.recent) - i - maxRecent; over > 0 {
		i += over
	}
	if i > 0 {
		s.recent = append(s.recent[:0], s.recent[i:]...)
	}
}

// enqueue is the one way into a replica's loop, shared by Submit,
// resubmit and acceptHandoff: a non-blocking send behind the stop
// gate. It fails with ErrStopped once the gate is closed and with
// ErrQueueFull at capacity. An accepted send bumps accepted (when
// non-nil) under the gate, so once Stop has closed it the counter
// covers everything the loop will serve.
func enqueue[T any](s *Server, ch chan T, v T, accepted *atomic.Int64) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.stopped {
		return ErrStopped
	}
	select {
	case ch <- v:
		if accepted != nil {
			accepted.Add(1)
		}
		return nil
	default:
		return ErrQueueFull
	}
}

// closeGate makes every later enqueue fail with ErrStopped and signals
// the loop to drain. Idempotent; Stop and the loop's exit share it.
func (s *Server) closeGate() {
	s.gate.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.gate.Unlock()
}

// conclude is the one way a terminal outcome leaves the loop: it
// claims the call — a lost claim means another replica (a resurrected
// duplicate, a duplicated handoff) already delivered, and nothing
// changes — counts the outcome, and holds it for deliver.
func (s *Server) conclude(c *call, res Result) {
	if !c.claim() {
		return
	}
	if res.Err != nil {
		s.agg.failed++
	} else {
		s.agg.completed++
		s.agg.ttftSum += res.TTFT
		s.agg.tpotSum += res.TPOT
		s.agg.queueWaitSum += res.QueueWait
	}
	s.outcomes = append(s.outcomes, outcome{c: c, res: res})
}

// lose gives up requests this replica cannot serve (a dropped handoff,
// a crash, a hang): they count as lost and go to the health router's
// resurrection hook when one is installed, otherwise they conclude as
// failures with err.
func (s *Server) lose(calls []*call, err error) {
	s.agg.lost += int64(len(calls))
	if s.onDeath != nil {
		s.lost = append(s.lost, calls...)
		return
	}
	for _, c := range calls {
		s.conclude(c, Result{Err: err})
	}
}

// settle ends an iteration: its outcomes are claimed and counted, so
// publish the snapshot (unless a scripted stalestats window freezes
// it: routers then keep ranking this replica on its frozen load and
// prefix digest) and only then deliver — a caller that has seen a
// request's Result must observe stats that include it.
func (s *Server) settle() {
	completed := 0
	for i := range s.outcomes {
		if s.outcomes[i].res.Err == nil {
			completed++
		}
	}
	if completed > 0 {
		s.noteCompletions(completed)
	}
	if !s.cfg.Faults.statsStaleAt(s.sp.Clock()) {
		s.publish()
	}
	s.deliver()
}

// deliver sends every concluded outcome to its caller — a completion
// with its finished event — and hands lost requests to the
// resurrection hook.
func (s *Server) deliver() {
	for i := range s.outcomes {
		o := &s.outcomes[i]
		if o.res.Err == nil {
			o.c.emit(Event{Type: EventFinished, SimSeconds: o.res.Finished})
		}
		o.c.deliver(o.res)
		*o = outcome{} // do not pin delivered calls via the scratch
	}
	s.outcomes = s.outcomes[:0]
	if len(s.lost) > 0 {
		s.onDeath(s, s.lost)
		s.lost = nil
	}
}

// exit ends the loop for good: it closes the gate and evacuates every
// request the replica holds. A death (lost: crash, hang) loses them; a
// force-failed drain or a broken stepper invariant concludes them as
// failures with err. Only the exit's own counters fold into the
// snapshot, before anything is delivered; the published load stays as
// last published, because routers rank the dead replica on it.
func (s *Server) exit(err error, lost bool) {
	s.closeGate()
	held := s.evacuate()
	was := s.agg
	if lost {
		s.lose(held, err)
	} else {
		for _, c := range held {
			s.conclude(c, Result{Err: err})
		}
	}
	s.statsMu.Lock()
	s.stats.Failed += s.agg.failed - was.failed
	s.stats.LostRequests += s.agg.lost - was.lost
	s.statsMu.Unlock()
	s.deliver()
}

// evacuate empties the replica of every undelivered request it holds —
// both channels (what raced past the gate before it closed), the core,
// pending handoffs and the running batch — sorted by scheduler id:
// map iteration is randomised, and resurrection re-dispatches in this
// order, so sorting keeps chaos replays bit-identical.
func (s *Server) evacuate() []*call {
	s.drain()
	var held []*call
	take := func(c *call) {
		if !c.done.Load() {
			held = append(held, c)
		}
	}
	s.core.drainAll(take)
	for _, h := range s.pendingHO {
		take(h.c)
	}
	for _, c := range s.inflight {
		take(c)
	}
	sort.Slice(held, func(i, j int) bool { return held[i].req.ID < held[j].req.ID })
	return held
}

// resubmit re-enqueues a request another replica lost: resurrection's
// entry point, called by the health router. A fresh scheduler id is
// minted from the (fleet-shared) counter so a late duplicate delivery
// from the old owner stays harmless, and the arrival restamps at this
// replica's live clock plus the call's deterministic backoff.
func (s *Server) resubmit(c *call) error {
	c.req.ID = int(s.ids.Add(1))
	c.req.ArrivalSeconds = ArrivalNow
	return enqueue(s, s.submitCh, c, &s.submitted)
}
