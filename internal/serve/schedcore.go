package serve

// The scheduler core (docs/scheduling.md): binary heaps over calls, one
// container/heap type for every queue the loop keeps, each ordered by
// an exact (k1, k2, id) key that the policies map their ordering onto.
// Every pick is the top of one heap, so it equals the linear scan of
// the policy's ordering by construction (enforced by
// FuzzPolicyEquivalence against the linear reference in the tests, and
// by golden replay schedules). Push, pop and removal by slot are
// O(log n) in queue depth; past each heap's high-water mark nothing
// allocates, which BenchmarkAdmissionDeepQueue and
// BenchmarkVictimSelection lock in at 0 allocs/op in CI.

import (
	"container/heap"
	"math"
)

// coreKey is a filed call's exact sort key: (k1, k2, id) ascending,
// lexicographic, id always the final tie-break.
type coreKey struct {
	k1, k2 float64
	id     int
}

// coreHeap is a min-heap of calls by key. Swap and Push keep every
// call's slot equal to its index, so a filed call is removed by slot
// with no search.
type coreHeap []*call

func (h coreHeap) Len() int { return len(h) }

func (h coreHeap) Less(i, j int) bool {
	a, b := &h[i].key, &h[j].key
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	return a.id < b.id
}

func (h coreHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot, h[j].slot = i, j
}

func (h *coreHeap) Push(x any) {
	c := x.(*call)
	c.slot = len(*h)
	*h = append(*h, c)
}

func (h *coreHeap) Pop() any {
	old := *h
	n := len(old) - 1
	c := old[n]
	old[n] = nil // do not pin the call via the backing array
	*h = old[:n]
	return c
}

// file pushes c under the key (k1, k2, c's scheduler id).
func (h *coreHeap) file(c *call, k1, k2 float64) {
	c.key = coreKey{k1: k1, k2: k2, id: c.req.ID}
	heap.Push(h, c)
}

// policyKind selects the schedCore key mapping for one built-in policy.
type policyKind uint8

const (
	kindFIFO policyKind = iota
	kindPriority
	kindSLO
)

// schedCore is the incremental scheduling state a server maintains
// for its policy (built by Policy.newCore), four heaps:
//
//   - future: requests whose virtual arrival is still ahead of the
//     clock, keyed (arrival, 0, id). Clock advances pop arrivals in
//     stamped order — the incremental pending→eligible promotion.
//   - elig: the eligible requests. FIFO keys them (0, 0, id) —
//     submission order; priority keys interactive and aged-batch
//     requests (arrival, 0, id); SLO keys (deadline, arrival, id).
//   - eligBatch: priority's un-aged batch requests under the same key.
//     Its top doubles as the aging calendar, because the
//     earliest-arrival un-aged request is always the next to age.
//   - running: SLO's in-flight batch keyed (−deadline, −admitted, id),
//     so the top is the victim: the latest deadline, ties toward the
//     most recent admission, then the lowest id.
//
// Every pick therefore reproduces the policy's documented ordering
// exactly, including tie-breaks.
type schedCore struct {
	kind                             policyKind
	aging                            float64
	future, elig, eligBatch, running coreHeap
}

// len counts every queued (future + eligible) request.
func (sc *schedCore) len() int { return len(sc.future) + len(sc.elig) + len(sc.eligBatch) }

// add queues a stamped call. Requests in the clock's past are promoted
// to the eligible heaps by the next promote call, in (arrival, id)
// order.
func (sc *schedCore) add(c *call) { sc.future.file(c, c.req.ArrivalSeconds, 0) }

// nextArrival is the earliest queued arrival still ahead of the clock
// (+Inf when none) — the idle fast-forward target.
func (sc *schedCore) nextArrival() float64 {
	if len(sc.future) == 0 {
		return math.Inf(1)
	}
	return sc.future[0].key.k1
}

// promote advances the core to now: arrivals on the clock move from
// future onto the eligible heaps, and priority's batch requests that
// have aged past the promotion window move from batch rank to
// interactive rank, keeping their key. Each request promotes at most
// once per transition.
func (sc *schedCore) promote(now float64) {
	for len(sc.future) > 0 && sc.future[0].key.k1 <= now {
		sc.enqueue(now, heap.Pop(&sc.future).(*call))
	}
	for len(sc.eligBatch) > 0 && agedToInteractive(now, sc.eligBatch[0].key.k1, sc.aging) {
		heap.Push(&sc.elig, heap.Pop(&sc.eligBatch))
	}
}

// enqueue files one arrived call under its policy rank key.
func (sc *schedCore) enqueue(now float64, c *call) {
	switch {
	case sc.kind == kindFIFO:
		sc.elig.file(c, 0, 0)
	case sc.kind == kindSLO:
		sc.elig.file(c, c.deadline(), c.req.ArrivalSeconds)
	case c.class == ClassBatch && !agedToInteractive(now, c.req.ArrivalSeconds, sc.aging):
		sc.eligBatch.file(c, c.req.ArrivalSeconds, 0)
	default:
		sc.elig.file(c, c.req.ArrivalSeconds, 0)
	}
}

// next is the heap the policy admits from: elig, falling back to
// priority's batch rank; nil when nothing is eligible.
func (sc *schedCore) next() *coreHeap {
	switch {
	case len(sc.elig) > 0:
		return &sc.elig
	case len(sc.eligBatch) > 0:
		return &sc.eligBatch
	}
	return nil
}

// peek returns the request the policy admits next, without consuming
// it.
func (sc *schedCore) peek() (*call, bool) {
	if h := sc.next(); h != nil {
		return (*h)[0], true
	}
	return nil, false
}

// pop removes the request peek returned (admitted or failed).
func (sc *schedCore) pop() { heap.Pop(sc.next()) }

// runningAdd files an admission or import in SLO's victim heap; the
// other policies never preempt.
func (sc *schedCore) runningAdd(c *call) {
	if sc.kind == kindSLO {
		sc.running.file(c, -c.deadline(), -c.admittedAt)
	}
}

// runningRemove takes a completion, preemption or handoff out of the
// victim heap.
func (sc *schedCore) runningRemove(c *call) {
	if sc.kind == kindSLO {
		heap.Remove(&sc.running, c.slot)
	}
}

// victim picks the preemption victim for a blocked request: the top of
// the running heap, and only when its deadline is strictly later than
// the blocked request's (SLOPolicy). Deadline is the primary key, so if
// the top fails the strictly-later filter, no running sequence passes.
func (sc *schedCore) victim(blockedDeadline float64) (int, bool) {
	if len(sc.running) == 0 || math.IsInf(blockedDeadline, 1) {
		return 0, false
	}
	c := sc.running[0]
	if c.deadline() <= blockedDeadline {
		return 0, false
	}
	return c.req.ID, true
}

// drainAll hands every queued call to f and empties the core — the
// loop's exit evacuation (the running batch leaves through the
// server's inflight map).
func (sc *schedCore) drainAll(f func(*call)) {
	for _, h := range []coreHeap{sc.future, sc.elig, sc.eligBatch} {
		for _, c := range h {
			f(c)
		}
	}
	*sc = schedCore{kind: sc.kind, aging: sc.aging}
}
