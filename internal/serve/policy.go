package serve

import "fmt"

// Policy decides admission order for the scheduler loop, and which
// in-flight sequence to preempt when an urgent request cannot fit —
// the engine.Stepper returns every block a victim held, so the urgent
// admission proceeds and the victim restarts from scratch later.
//
// The set is closed: FIFOPolicy, PriorityPolicy and SLOPolicy are the
// only implementations. Each runs on the incremental heap core
// (schedcore.go, docs/scheduling.md), whose per-slot admission and
// victim decisions are O(log n) in queue depth. Policies are plain
// values, usable across replicas (no per-server state).
type Policy interface {
	// Name identifies the policy ("fifo", "priority", "slo") in flags,
	// stats and logs.
	Name() string
	// newCore builds the policy's scheduler state for one server.
	newCore() *schedCore
}

// PolicyNames lists the built-in policies in flag order.
func PolicyNames() []string { return []string{"fifo", "priority", "slo"} }

// PolicyByName returns a fresh built-in policy with its defaults:
// "fifo", "priority" or "slo".
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "fifo", "":
		return FIFOPolicy{}, nil
	case "priority":
		return PriorityPolicy{}, nil
	case "slo":
		return SLOPolicy{}, nil
	default:
		return nil, fmt.Errorf("serve: unknown policy %q (have %v)", name, PolicyNames())
	}
}

// FIFOPolicy admits in submission order with head-of-line blocking and
// never preempts — the default. Ordering applies among requests that
// have arrived on the virtual clock, so a trace replayed with
// out-of-order arrival stamps never blocks an arrived request behind a
// future-stamped head of line.
type FIFOPolicy struct{}

// Name implements Policy.
func (FIFOPolicy) Name() string { return "fifo" }

func (FIFOPolicy) newCore() *schedCore {
	return &schedCore{kind: kindFIFO}
}

// DefaultAgingSeconds is PriorityPolicy's default promotion age: a
// batch request waiting this many virtual seconds competes at
// interactive rank, where its older arrival wins FIFO ties.
const DefaultAgingSeconds = 5

// agedToInteractive is PriorityPolicy's promotion predicate: a batch
// request that arrived at arrival has aged to interactive rank once it
// has waited at least aging virtual seconds. The heap core
// (schedCore.promote/enqueue) and the linear reference in the tests
// share this exact float comparison — a re-derived form like
// arrival <= now-aging rounds differently and could promote on
// different iterations. Phrased as age >= aging so a NaN-stamped
// arrival can never spuriously promote to interactive rank: garbage
// stays at batch rank, it does not jump the queue.
func agedToInteractive(now, arrival, aging float64) bool {
	return now-arrival >= aging
}

// PriorityPolicy admits interactive-class requests before batch-class
// ones, FIFO within a class; exact ties at equal rank and arrival fall
// to the lower submission id. Aging makes it starvation-free: a batch
// request that has waited AgingSeconds is promoted to interactive
// rank, and since every tie at equal rank breaks toward the earlier
// arrival, the aged request beats all interactive traffic that arrived
// after it — so sustained interactive load can delay a batch request
// by at most the aging window plus one admission cycle. It never
// preempts.
type PriorityPolicy struct {
	// AgingSeconds promotes a batch request to interactive rank after
	// this long in the queue. Zero (or negative) = DefaultAgingSeconds.
	AgingSeconds float64
}

// Name implements Policy.
func (PriorityPolicy) Name() string { return "priority" }

func (p PriorityPolicy) newCore() *schedCore {
	aging := p.AgingSeconds
	if aging <= 0 {
		aging = DefaultAgingSeconds
	}
	return &schedCore{kind: kindPriority, aging: aging}
}

// SLOPolicy is earliest-TTFT-deadline-first admission, ties broken by
// arrival, then submission id. Requests without a deadline sort last
// (FIFO among themselves). When the earliest-deadline request cannot
// fit, the policy preempts the in-flight sequence with the latest
// deadline — ties toward the most recent admission, then the lowest
// id — provided that deadline is strictly later than the blocked
// request's, so a preempted sequence can never bounce the request that
// displaced it, and the preemption chain is bounded by the running
// batch. Requests without a deadline never trigger a preemption.
type SLOPolicy struct{}

// Name implements Policy.
func (SLOPolicy) Name() string { return "slo" }

func (SLOPolicy) newCore() *schedCore {
	return &schedCore{kind: kindSLO}
}
