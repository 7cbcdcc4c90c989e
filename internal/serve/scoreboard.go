package serve

// Bitmap-scoreboard scheduler core (docs/scheduling.md): bounded
// bit-parallel ready queues that make every per-iteration admission and
// victim decision O(1) in queue depth, instead of rebuilding and
// scanning the whole queue per admission slot. The idea follows the
// same spirit as the paper's lookup-table compute — replace repeated
// scans with precomputed bit-parallel structure — applied to the
// serving layer's scheduler:
//
//   - A two-level 64×64 bitmap (bitset4096) tracks which of 4096 rank
//     buckets are occupied. Two CTZ steps (math/bits.TrailingZeros64 on
//     the summary word, then on the selected word) find the lowest
//     occupied bucket in constant time; two CLZ steps
//     (math/bits.LeadingZeros64) find the highest — the reverse pick
//     behind SLO victim selection.
//   - Eligible requests are bucketed once, at enqueue time, by the
//     policy's rank key (class/aged rank and arrival for priority,
//     deadline for SLO, submission id for FIFO) instead of being
//     re-ranked against the whole queue on every admission slot.
//   - Requests that collide into the same rank bucket chain on an
//     intrusive doubly-linked list kept in exact key order, so bucket
//     quantisation never changes a scheduling decision: the scoreboard
//     schedules byte-identically to a linear scan of the policy's
//     ordering (enforced by FuzzPolicyEquivalence against the linear
//     reference in the tests, and by golden replay schedules).
//
// Selection is always O(1). Enqueue is O(1) for keys arriving in
// non-decreasing order — the live path, where arrivals are stamped by a
// monotone virtual clock — and degrades to a bounded walk of one
// bucket's chain for out-of-order keys (preemption requeues, aging
// promotions, out-of-order trace stamps). All node storage is pooled
// and recycled: past each structure's high-water mark the hot path
// allocates nothing, which BenchmarkAdmissionDeepQueue locks in at 0
// allocs/op in CI.

import (
	"math"
	"math/bits"
)

const (
	sbWords   = 64
	sbBuckets = sbWords * 64 // 4096 rank buckets: a 64×64 two-level window
	sbNone    = int32(-1)
)

// bitset4096 is a two-level occupancy bitmap over the 4096 rank
// buckets: one summary word with a bit per 64-bucket group, and one
// word per group. min and max run in constant time regardless of how
// many buckets are occupied.
type bitset4096 struct {
	summary uint64
	words   [sbWords]uint64
}

func (b *bitset4096) set(i int) {
	w := uint(i) >> 6
	b.words[w] |= 1 << (uint(i) & 63)
	b.summary |= 1 << w
}

func (b *bitset4096) clear(i int) {
	w := uint(i) >> 6
	b.words[w] &^= 1 << (uint(i) & 63)
	if b.words[w] == 0 {
		b.summary &^= 1 << w
	}
}

// min returns the lowest occupied bucket, or -1: two TrailingZeros64
// steps (the mirror image of the CLZ pick, for ascending rank order).
func (b *bitset4096) min() int {
	if b.summary == 0 {
		return -1
	}
	w := bits.TrailingZeros64(b.summary)
	return w<<6 | bits.TrailingZeros64(b.words[w])
}

// max returns the highest occupied bucket, or -1: two LeadingZeros64
// steps — the reverse-CLZ pick behind latest-deadline victim selection.
func (b *bitset4096) max() int {
	if b.summary == 0 {
		return -1
	}
	w := 63 - bits.LeadingZeros64(b.summary)
	return w<<6 | (63 - bits.LeadingZeros64(b.words[w]))
}

// sbKey is a scoreboard entry's exact sort key: (k1, k2, id) ascending,
// lexicographic. The policies map their ranking onto it — see
// schedCore — and id is always the final tie-break.
type sbKey struct {
	k1, k2 float64
	id     int
}

func (a sbKey) less(b sbKey) bool {
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	return a.id < b.id
}

// floatOrd maps a float64 onto a uint64 whose unsigned order matches
// the float order (the standard sign-flip transform): negative floats
// have their bits inverted, positives get the sign bit set. Monotone
// over the whole float range including ±Inf, so bucket boundaries can
// never reorder two keys.
func floatOrd(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// bucketOf quantises a primary key to its rank bucket: the top 12 bits
// of the order-preserving transform. Quantisation is monotone
// (k1a < k1b ⟹ bucketOf(k1a) <= bucketOf(k1b)); exact order within a
// bucket is kept by the chain, so the pick is always exact.
func bucketOf(k1 float64) int { return int(floatOrd(k1) >> 52) }

// sbNode is one pooled scoreboard entry. Nodes are addressed by index
// into the backing slice (stable across growth, unlike pointers) and
// recycled through a free list, so steady-state insert/remove cycles
// allocate nothing.
type sbNode struct {
	key        sbKey
	c          *call
	bucket     int32
	prev, next int32
}

// scoreboard is one bounded bitmap window: 4096 rank buckets under a
// two-level occupancy bitmap, each bucket chaining its entries in
// exact (k1, k2, id) order. min/max picks are O(1); removal by id is
// O(1); insertion is O(1) for monotone keys and a bounded in-bucket
// walk otherwise.
type scoreboard struct {
	bits       bitset4096
	head, tail [sbBuckets]int32
	nodes      []sbNode
	freeList   int32
	index      map[int]int32
	size       int
}

func newScoreboard() *scoreboard {
	sb := &scoreboard{index: make(map[int]int32), freeList: sbNone}
	for i := range sb.head {
		sb.head[i], sb.tail[i] = sbNone, sbNone
	}
	return sb
}

func (sb *scoreboard) len() int { return sb.size }

func (sb *scoreboard) alloc() int32 {
	if n := sb.freeList; n >= 0 {
		sb.freeList = sb.nodes[n].next
		return n
	}
	sb.nodes = append(sb.nodes, sbNode{})
	return int32(len(sb.nodes) - 1)
}

// insert files id under its rank bucket in exact key order. The two
// O(1) fast paths — empty bucket, and append-after-tail — cover the
// live path's monotone keys; everything else (requeues, promotions,
// out-of-order trace stamps) walks the bucket chain from the head,
// where old keys land.
func (sb *scoreboard) insert(id int, k1, k2 float64, c *call) {
	sb.insertOrd(id, id, k1, k2, c)
}

// insertOrd is insert with the ordering id decoupled from the lookup
// id: ordID breaks exact-key ties in the chain while id keys the index
// for removal. The victim scoreboard files ordID = -id so its max pick
// lands on the lowest submission id at a full tie; everywhere else the
// two coincide.
func (sb *scoreboard) insertOrd(id, ordID int, k1, k2 float64, c *call) {
	n := sb.alloc()
	bkt := bucketOf(k1)
	sb.nodes[n] = sbNode{key: sbKey{k1: k1, k2: k2, id: ordID}, c: c, bucket: int32(bkt), prev: sbNone, next: sbNone}
	switch t := sb.tail[bkt]; {
	case t < 0:
		sb.head[bkt], sb.tail[bkt] = n, n
		sb.bits.set(bkt)
	case !sb.nodes[n].key.less(sb.nodes[t].key):
		sb.nodes[n].prev = t
		sb.nodes[t].next = n
		sb.tail[bkt] = n
	default:
		at := sb.head[bkt]
		for sb.nodes[at].key.less(sb.nodes[n].key) {
			at = sb.nodes[at].next
		}
		sb.nodes[n].next = at
		sb.nodes[n].prev = sb.nodes[at].prev
		sb.nodes[at].prev = n
		if sb.nodes[n].prev < 0 {
			sb.head[bkt] = n
		} else {
			sb.nodes[sb.nodes[n].prev].next = n
		}
	}
	sb.index[id] = n
	sb.size++
}

// remove unfiles id; reports whether it was present.
func (sb *scoreboard) remove(id int) bool {
	n, ok := sb.index[id]
	if !ok {
		return false
	}
	node := &sb.nodes[n]
	bkt := node.bucket
	if node.prev < 0 {
		sb.head[bkt] = node.next
	} else {
		sb.nodes[node.prev].next = node.next
	}
	if node.next < 0 {
		sb.tail[bkt] = node.prev
	} else {
		sb.nodes[node.next].prev = node.prev
	}
	if sb.head[bkt] < 0 {
		sb.bits.clear(int(bkt))
	}
	node.c = nil // drop the call reference so the pool does not pin it
	node.next = sb.freeList
	sb.freeList = n
	delete(sb.index, id)
	sb.size--
	return true
}

// min returns the entry with the smallest (k1, k2, id) key: lowest
// occupied bucket by double-CTZ, then that bucket's chain head. The
// returned node is only valid until the next mutation.
func (sb *scoreboard) min() (*sbNode, bool) {
	bkt := sb.bits.min()
	if bkt < 0 {
		return nil, false
	}
	return &sb.nodes[sb.head[bkt]], true
}

// max returns the entry with the largest (k1, k2, id) key: highest
// occupied bucket by double-CLZ, then that bucket's chain tail.
func (sb *scoreboard) max() (*sbNode, bool) {
	bkt := sb.bits.max()
	if bkt < 0 {
		return nil, false
	}
	return &sb.nodes[sb.tail[bkt]], true
}

// each calls f for every filed entry, in no particular order. Only used
// on the cold exit path (evacuate); the hot path never iterates.
func (sb *scoreboard) each(f func(*call)) {
	for i := range sb.nodes {
		if sb.nodes[i].c != nil {
			f(sb.nodes[i].c)
		}
	}
}

// futureEnt is one not-yet-arrived request in the promotion heap.
type futureEnt struct {
	arrival float64
	id      int
	c       *call
}

func futureLess(a, b futureEnt) bool {
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.id < b.id
}

// policyKind selects the schedCore key mapping for one built-in policy.
type policyKind uint8

const (
	kindFIFO policyKind = iota
	kindPriority
	kindSLO
)

// schedCore is the incremental scheduling state a server maintains
// for its policy (built by Policy.newCore):
//
//   - future: a min-heap by (arrival, id) of requests whose virtual
//     arrival is still ahead of the clock. Clock advances pop arrivals
//     in stamped order — the incremental pending→eligible promotion.
//   - elig / eligBatch: the eligible scoreboards. FIFO files everything
//     under (0, 0, id) — submission order. Priority files interactive
//     and aged-batch requests in elig under (arrival, 0, id) and
//     un-aged batch requests in eligBatch under the same key; the
//     eligBatch minimum doubles as the aging calendar, because the
//     earliest-arrival un-aged request is always the next to promote.
//     SLO files everything in elig under (deadline, arrival, id).
//   - running: SLO's victim scoreboard over the in-flight batch, keyed
//     (deadline, admitted, -id) so the latest-deadline victim — ties
//     broken toward the most recent admission, then the LOWEST id
//     (the ordering id is negated because the pick is a max) — is the
//     reverse-CLZ max pick.
//
// Every pick therefore reproduces the policy's documented ordering
// exactly, including tie-breaks.
type schedCore struct {
	kind      policyKind
	aging     float64
	future    []futureEnt
	elig      *scoreboard
	eligBatch *scoreboard
	running   *scoreboard
}

// len counts every queued (future + eligible) request.
func (sc *schedCore) len() int {
	n := len(sc.future) + sc.elig.len()
	if sc.eligBatch != nil {
		n += sc.eligBatch.len()
	}
	return n
}

// add queues a stamped call. Requests in the clock's past are promoted
// to the eligible scoreboards by the next promote call, in (arrival,
// id) order.
func (sc *schedCore) add(c *call) {
	sc.future = append(sc.future, futureEnt{arrival: c.req.ArrivalSeconds, id: c.req.ID, c: c})
	// Sift up.
	i := len(sc.future) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !futureLess(sc.future[i], sc.future[parent]) {
			break
		}
		sc.future[i], sc.future[parent] = sc.future[parent], sc.future[i]
		i = parent
	}
}

// popFuture removes and returns the earliest future entry.
func (sc *schedCore) popFuture() futureEnt {
	h := sc.future
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = futureEnt{} // drop the call reference
	sc.future = h[:last]
	// Sift down.
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && futureLess(h[l], h[small]) {
			small = l
		}
		if r < n && futureLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// nextArrival is the earliest queued arrival still ahead of the clock
// (+Inf when none) — the idle fast-forward target.
func (sc *schedCore) nextArrival() float64 {
	if len(sc.future) == 0 {
		return math.Inf(1)
	}
	return sc.future[0].arrival
}

// promote advances the core to now: arrivals on the clock move from
// the future heap onto the eligible scoreboards, and — for priority —
// batch requests that have aged past the promotion window move from
// batch rank to interactive rank. Each request promotes at most once
// per transition, so promotion work is O(1) amortised per request.
func (sc *schedCore) promote(now float64) {
	for len(sc.future) > 0 && sc.future[0].arrival <= now {
		e := sc.popFuture()
		sc.enqueue(now, e.c)
	}
	if sc.kind == kindPriority {
		// The aging calendar: eligBatch's minimum is the earliest
		// arrival, hence always the next request to age into the
		// interactive rank.
		for {
			n, ok := sc.eligBatch.min()
			if !ok || !agedToInteractive(now, n.key.k1, sc.aging) {
				break
			}
			c := n.c
			sc.eligBatch.remove(n.key.id)
			sc.elig.insert(c.req.ID, c.req.ArrivalSeconds, 0, c)
		}
	}
}

// enqueue files one arrived call under its policy rank key.
func (sc *schedCore) enqueue(now float64, c *call) {
	switch sc.kind {
	case kindFIFO:
		sc.elig.insert(c.req.ID, 0, 0, c)
	case kindPriority:
		if c.class == ClassBatch && !agedToInteractive(now, c.req.ArrivalSeconds, sc.aging) {
			sc.eligBatch.insert(c.req.ID, c.req.ArrivalSeconds, 0, c)
		} else {
			sc.elig.insert(c.req.ID, c.req.ArrivalSeconds, 0, c)
		}
	case kindSLO:
		sc.elig.insert(c.req.ID, c.deadline(), c.req.ArrivalSeconds, c)
	}
}

// peek returns the request the policy admits next — the minimum of the
// interactive-rank scoreboard, falling back to the batch rank — in
// O(1), without consuming it.
func (sc *schedCore) peek() (*call, bool) {
	if n, ok := sc.elig.min(); ok {
		return n.c, true
	}
	if sc.eligBatch != nil {
		if n, ok := sc.eligBatch.min(); ok {
			return n.c, true
		}
	}
	return nil, false
}

// removeEligible unfiles an eligible request (admitted, failed, or
// drained) from whichever rank scoreboard holds it.
func (sc *schedCore) removeEligible(id int) {
	if sc.elig.remove(id) {
		return
	}
	if sc.eligBatch != nil {
		sc.eligBatch.remove(id)
	}
}

// runningAdd mirrors an admission into the victim scoreboard (SLO
// only; the other policies never preempt). The entry's ordering id is
// negated: the victim pick is a max, but SLOPolicy's final victim
// tie-break prefers the LOWEST submission id, so the largest ordering
// id at a full (deadline, admitted) tie must belong to the lowest real
// id. Lookup keys (index, remove) stay the real id.
func (sc *schedCore) runningAdd(c *call) {
	if sc.running != nil {
		sc.running.insertOrd(c.req.ID, -c.req.ID, c.deadline(), c.admittedAt, c)
	}
}

// runningRemove mirrors a completion, preemption or handoff out of the
// victim scoreboard.
func (sc *schedCore) runningRemove(id int) {
	if sc.running != nil {
		sc.running.remove(id)
	}
}

// victim picks the preemption victim for a blocked request in O(1):
// the reverse-CLZ max of the running scoreboard — the latest deadline,
// ties toward the most recent admission, then the lowest id (ordering
// ids are negated, see runningAdd) — and only when that deadline is
// strictly later than the blocked request's (SLOPolicy): deadline is
// the primary key, so if the global max fails the strictly-later
// filter, no running sequence can pass it.
func (sc *schedCore) victim(blockedDeadline float64) (int, bool) {
	if sc.running == nil || math.IsInf(blockedDeadline, 1) {
		return 0, false
	}
	n, ok := sc.running.max()
	if !ok || n.key.k1 <= blockedDeadline {
		return 0, false
	}
	return n.c.req.ID, true
}

// drainAll hands every queued call to f and empties the core — the
// loop's exit evacuation.
func (sc *schedCore) drainAll(f func(*call)) {
	for _, e := range sc.future {
		f(e.c)
	}
	sc.future = sc.future[:0]
	sc.elig.each(f)
	*sc.elig = *newScoreboard()
	if sc.eligBatch != nil {
		sc.eligBatch.each(f)
		*sc.eligBatch = *newScoreboard()
	}
}
