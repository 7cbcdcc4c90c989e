package serve

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Deterministic fault injection (docs/robustness.md): a FaultPlan is a
// small, parseable script of failures addressed to replicas by fleet
// index and triggered by each replica's own virtual clock — never by
// wall time, goroutine scheduling or randomness at injection time — so
// a chaos run replays bit-identically: the same plan against the same
// workload always kills the same requests at the same virtual instant.
// The plan feeds per-replica runtime state (ReplicaFaults, attached via
// Config.Faults) that the scheduler loop and the engine.Stepper consult
// as pure functions of virtual time.
//
// Six fault kinds cover the failure surface the fleet routes around:
//
//	crash       — the replica dies at virtual time T: the loop exits,
//	              new submissions fail with ErrStopped, and every
//	              queued or in-flight request is lost (handed to the
//	              router's resurrection hook when health-aware routing
//	              is on, failed otherwise).
//	hang        — the replica stops making progress at T but keeps
//	              accepting submissions until its queue fills; it
//	              loses its stranded requests like a crash's only when
//	              it is stopped (by Stop, or when a Replay ends).
//	slow        — step-time slowdown: every virtual step duration is
//	              multiplied by Factor from T (optionally for a window),
//	              modelling thermal throttling or a noisy neighbour.
//	codecfail   — the KV codec starts rejecting content at T: cold
//	              prefix blocks degrade to plain physical parking
//	              instead of freezing compressed (counted in
//	              Stats.CodecFallbacks; see docs/compressed-kv.md).
//	drophandoff — the next prefill→decode handoff dispatched at or
//	              after T vanishes in transfer: the source has released
//	              ownership, nothing arrives (one event per directive;
//	              lost requests resurrect or fail like a crash's).
//	stalestats  — the replica's published stats snapshot freezes for a
//	              window, load, prefix digest and digest age alike:
//	              routers keep ranking it on what it last published.

// FaultKind names one injectable fault type in a FaultPlan.
type FaultKind string

// The six fault kinds of the plan DSL.
const (
	FaultCrash       FaultKind = "crash"
	FaultHang        FaultKind = "hang"
	FaultSlow        FaultKind = "slow"
	FaultCodecFail   FaultKind = "codecfail"
	FaultDropHandoff FaultKind = "drophandoff"
	FaultStaleStats  FaultKind = "stalestats"
)

// FaultEvent is one scripted failure: Kind happening to replica index
// Replica at virtual time At (seconds on that replica's clock). Factor
// is the step-time multiplier (FaultSlow only, > 0; values > 1 slow the
// replica down). For bounds windowed faults (FaultSlow, FaultCodecFail,
// FaultStaleStats) to [At, At+For); 0 means until shutdown.
type FaultEvent struct {
	Kind    FaultKind
	Replica int
	At      float64
	Factor  float64
	For     float64
}

// FaultPlan is a deterministic fault-injection script: an optional
// generation seed (echoed for provenance; see RandomFaultPlan) and the
// scripted events. Parse one with ParseFaultPlan; String re-serialises
// canonically, and ParseFaultPlan(p.String()) always round-trips to an
// identical plan (FuzzFaultPlan pins this).
type FaultPlan struct {
	Seed   int64
	Events []FaultEvent
}

// faultFields describes which optional keys each kind accepts; replica
// and at are accepted by every kind (at defaults to 0).
var faultFields = map[FaultKind]struct{ factor, window bool }{
	FaultCrash:       {},
	FaultHang:        {},
	FaultSlow:        {factor: true, window: true},
	FaultCodecFail:   {window: true},
	FaultDropHandoff: {},
	FaultStaleStats:  {window: true},
}

// ParseFaultPlan parses the fault-plan DSL: one directive per line,
// `#` comments and blank lines ignored, an optional `seed N` header,
// then events of the form
//
//	crash replica=1 at=0.5
//	slow replica=0 at=0 factor=8 for=2.5
//	hang replica=2 at=1
//	codecfail replica=1 at=2
//	drophandoff replica=0 at=1.5
//	stalestats replica=1 at=1 for=2
//
// Keys may appear in any order but at most once; times and durations
// are finite non-negative seconds, factor a finite positive multiplier
// valid only on slow. Unknown kinds and keys are errors, not warnings —
// a chaos scenario that silently drops a directive proves nothing.
func ParseFaultPlan(text string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	seenSeed := false
	for ln, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "seed" {
			if seenSeed {
				return nil, fmt.Errorf("serve: fault plan line %d: duplicate seed", ln+1)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("serve: fault plan line %d: want `seed N`", ln+1)
			}
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("serve: fault plan line %d: bad seed %q", ln+1, fields[1])
			}
			plan.Seed = n
			seenSeed = true
			continue
		}
		kind := FaultKind(fields[0])
		spec, ok := faultFields[kind]
		if !ok {
			return nil, fmt.Errorf("serve: fault plan line %d: unknown fault kind %q", ln+1, fields[0])
		}
		ev := FaultEvent{Kind: kind, Replica: -1}
		seen := map[string]bool{}
		for _, kv := range fields[1:] {
			key, val, found := strings.Cut(kv, "=")
			if !found {
				return nil, fmt.Errorf("serve: fault plan line %d: want key=value, got %q", ln+1, kv)
			}
			if seen[key] {
				return nil, fmt.Errorf("serve: fault plan line %d: duplicate key %q", ln+1, key)
			}
			seen[key] = true
			switch key {
			case "replica":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("serve: fault plan line %d: replica must be a non-negative index, got %q", ln+1, val)
				}
				ev.Replica = n
			case "at":
				f, err := parsePlanSeconds(val)
				if err != nil {
					return nil, fmt.Errorf("serve: fault plan line %d: at: %v", ln+1, err)
				}
				ev.At = f
			case "factor":
				if !spec.factor {
					return nil, fmt.Errorf("serve: fault plan line %d: factor is only valid on slow", ln+1)
				}
				f, err := parsePlanSeconds(val)
				if err != nil || f <= 0 {
					return nil, fmt.Errorf("serve: fault plan line %d: factor must be a finite positive multiplier, got %q", ln+1, val)
				}
				ev.Factor = f
			case "for":
				if !spec.window {
					return nil, fmt.Errorf("serve: fault plan line %d: for is not valid on %s", ln+1, kind)
				}
				f, err := parsePlanSeconds(val)
				if err != nil {
					return nil, fmt.Errorf("serve: fault plan line %d: for: %v", ln+1, err)
				}
				ev.For = f
			default:
				return nil, fmt.Errorf("serve: fault plan line %d: unknown key %q", ln+1, key)
			}
		}
		if ev.Replica < 0 {
			return nil, fmt.Errorf("serve: fault plan line %d: %s needs replica=<index>", ln+1, kind)
		}
		if spec.factor && ev.Factor == 0 {
			return nil, fmt.Errorf("serve: fault plan line %d: slow needs factor=<multiplier>", ln+1)
		}
		plan.Events = append(plan.Events, ev)
	}
	return plan, nil
}

// parsePlanSeconds parses a finite, non-negative plan scalar.
func parsePlanSeconds(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return 0, fmt.Errorf("must be finite and >= 0, got %q", s)
	}
	return f, nil
}

// String serialises the plan canonically — the exact form ParseFaultPlan
// round-trips. Events keep their plan order; optional fields are
// emitted only when set, floats in shortest-exact form.
func (p *FaultPlan) String() string {
	var b strings.Builder
	if p.Seed != 0 {
		fmt.Fprintf(&b, "seed %d\n", p.Seed)
	}
	for _, ev := range p.Events {
		b.WriteString(string(ev.Kind))
		fmt.Fprintf(&b, " replica=%d at=%s", ev.Replica, planFloat(ev.At))
		if ev.Factor != 0 {
			fmt.Fprintf(&b, " factor=%s", planFloat(ev.Factor))
		}
		if ev.For != 0 {
			fmt.Fprintf(&b, " for=%s", planFloat(ev.For))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func planFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// MaxReplica returns the highest replica index any event addresses
// (-1 for an empty plan) — the fleet-size sanity check for callers.
func (p *FaultPlan) MaxReplica() int {
	max := -1
	for _, ev := range p.Events {
		if ev.Replica > max {
			max = ev.Replica
		}
	}
	return max
}

// RandomFaultPlan generates a deterministic chaos plan from a seed: for
// each of n replicas an xorshift64 stream seeded on (seed, replica)
// draws at most one fault, uniformly over the kinds, with trigger times
// inside [0, horizon). The same (seed, n, horizon) always yields the
// same plan — seeded chaos without an RNG at injection time.
func RandomFaultPlan(seed int64, n int, horizon float64) *FaultPlan {
	if n <= 0 || horizon <= 0 {
		return &FaultPlan{Seed: seed}
	}
	kinds := []FaultKind{FaultCrash, FaultHang, FaultSlow, FaultCodecFail, FaultDropHandoff, FaultStaleStats}
	plan := &FaultPlan{Seed: seed}
	for r := 0; r < n; r++ {
		x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(r+1)*0xbf58476d1ce4e5b9
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		if next()%4 == 0 {
			continue // a quarter of the fleet stays healthy
		}
		kind := kinds[next()%uint64(len(kinds))]
		// Quantise times to milliseconds so the emitted plan stays
		// human-readable.
		at := math.Floor(float64(next()%1000)/1000*horizon*1e3) / 1e3
		ev := FaultEvent{Kind: kind, Replica: r, At: at}
		if kind == FaultSlow {
			ev.Factor = float64(2 + next()%7)
		}
		if faultFields[kind].window && next()%2 == 0 {
			ev.For = math.Floor(float64(1+next()%1000)/1000*horizon*1e3) / 1e3
		}
		plan.Events = append(plan.Events, ev)
	}
	return plan
}

// faultWindow is one active interval of a windowed fault.
type faultWindow struct {
	from, until float64 // until = +Inf for an unbounded window
	factor      float64 // slow only
}

// ReplicaFaults is one replica's runtime view of a FaultPlan: the
// events addressed to its index, indexed for O(log n) evaluation as
// pure functions of the replica's virtual clock. Attach one via
// Config.Faults (typically plan.Replica(i) at fleet assembly). All
// query methods are nil-safe — a fault-free replica carries nil.
//
// Injection state that must be consumed exactly once (the drophandoff
// trigger) is mutated only by the owning scheduler goroutine, so a
// ReplicaFaults must not be shared between servers.
type ReplicaFaults struct {
	crashAt float64 // +Inf = never
	hangAt  float64
	slows   []faultWindow // sorted by from
	codec   []faultWindow
	stale   []faultWindow
	drops   []float64 // drophandoff trigger times, sorted
	taken   int       // drops consumed (scheduler goroutine only)
}

// Replica projects the plan onto one fleet index, returning nil when no
// event addresses it (the no-fault fast path: Config.Faults stays nil).
func (p *FaultPlan) Replica(i int) *ReplicaFaults {
	if p == nil {
		return nil
	}
	f := &ReplicaFaults{crashAt: math.Inf(1), hangAt: math.Inf(1)}
	any := false
	for _, ev := range p.Events {
		if ev.Replica != i {
			continue
		}
		any = true
		until := math.Inf(1)
		if ev.For > 0 {
			until = ev.At + ev.For
		}
		switch ev.Kind {
		case FaultCrash:
			if ev.At < f.crashAt {
				f.crashAt = ev.At
			}
		case FaultHang:
			if ev.At < f.hangAt {
				f.hangAt = ev.At
			}
		case FaultSlow:
			f.slows = append(f.slows, faultWindow{from: ev.At, until: until, factor: ev.Factor})
		case FaultCodecFail:
			f.codec = append(f.codec, faultWindow{from: ev.At, until: until})
		case FaultStaleStats:
			f.stale = append(f.stale, faultWindow{from: ev.At, until: until})
		case FaultDropHandoff:
			f.drops = append(f.drops, ev.At)
		}
	}
	if !any {
		return nil
	}
	for _, ws := range [][]faultWindow{f.slows, f.codec, f.stale} {
		sort.Slice(ws, func(a, b int) bool { return ws[a].from < ws[b].from })
	}
	sort.Float64s(f.drops)
	return f
}

// crashedAt reports whether the replica's scripted crash time has been
// reached at virtual time now.
func (f *ReplicaFaults) crashedAt(now float64) bool {
	return f != nil && now >= f.crashAt
}

// hungAt reports whether the replica's scripted hang time has been
// reached.
func (f *ReplicaFaults) hungAt(now float64) bool {
	return f != nil && now >= f.hangAt
}

// slowFactorAt returns the step-time multiplier active at virtual time
// now (1 when no slow window covers it; overlapping windows multiply).
func (f *ReplicaFaults) slowFactorAt(now float64) float64 {
	if f == nil {
		return 1
	}
	factor := 1.0
	for _, w := range f.slows {
		if w.from > now {
			break
		}
		if now < w.until {
			factor *= w.factor
		}
	}
	return factor
}

// codecFailingAt reports whether the KV codec is scripted to reject
// content at virtual time now.
func (f *ReplicaFaults) codecFailingAt(now float64) bool {
	return f.windowActive(now, func() []faultWindow { return f.codec })
}

// statsStaleAt reports whether the replica's published stats snapshot
// is scripted frozen at virtual time now.
func (f *ReplicaFaults) statsStaleAt(now float64) bool {
	return f.windowActive(now, func() []faultWindow { return f.stale })
}

func (f *ReplicaFaults) windowActive(now float64, ws func() []faultWindow) bool {
	if f == nil {
		return false
	}
	for _, w := range ws() {
		if w.from > now {
			return false
		}
		if now < w.until {
			return true
		}
	}
	return false
}

// takeDrop consumes one due drophandoff trigger: it returns true when a
// scripted drop time <= now has not yet been taken. Scheduler goroutine
// only.
func (f *ReplicaFaults) takeDrop(now float64) bool {
	if f == nil || f.taken >= len(f.drops) || f.drops[f.taken] > now {
		return false
	}
	f.taken++
	return true
}

// active reports whether the replica has any scripted fault at all.
func (f *ReplicaFaults) active() bool { return f != nil }
