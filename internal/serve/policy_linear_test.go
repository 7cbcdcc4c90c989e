package serve

import (
	"math"
	"sort"
)

// The linear policy reference: each built-in policy's ordering written
// as a plain scan over a slice view of the queue (Next) and of the
// running batch (Victim). The server schedules on the heap core
// (schedcore.go) alone; these scans are the oracle it is checked
// against — FuzzPolicyEquivalence drains randomized queues through
// both, the tie-break tests pin the scans' semantics, and the golden
// replay schedules (testdata/golden/schedules.txt) were recorded from
// both paths while the server still ran this scan.

// Pending is the reference view of one queued request.
type Pending struct {
	ID        int
	PromptLen int
	OutputLen int
	Arrival   float64 // virtual arrival time
	Class     Class
	Deadline  float64 // absolute first-token deadline; +Inf without an SLO
}

// Running is the reference view of one in-flight sequence, the victim
// candidates Victim chooses from. Admitted carries each sequence's last
// admission time (admission order can diverge from ID order under a
// reordering policy).
type Running struct {
	ID        int
	PromptLen int
	OutputLen int
	Arrival   float64
	Admitted  float64
	Class     Class
	Deadline  float64
}

// linearPolicy is a built-in policy's reference scan.
type linearPolicy interface {
	Policy
	// Next returns the index into eligible (non-empty, arrived on the
	// virtual clock) of the request to admit next.
	Next(now float64, eligible []Pending) int
	// Victim returns the index into running of the sequence to preempt
	// so blocked can be admitted, or a negative value to wait for
	// capacity instead.
	Victim(now float64, blocked Pending, running []Running) int
}

// Next always picks the head of the queue.
func (FIFOPolicy) Next(now float64, eligible []Pending) int { return 0 }

// Victim never preempts.
func (FIFOPolicy) Victim(now float64, blocked Pending, running []Running) int { return -1 }

// Next picks the lowest (rank, arrival, id) among eligible. The final
// tie-break is the submission id, not the slice index: the pick must
// not depend on how the caller ordered the view, because the
// heap core never sees slice indices.
func (p PriorityPolicy) Next(now float64, eligible []Pending) int {
	aging := p.AgingSeconds
	if aging <= 0 {
		aging = DefaultAgingSeconds
	}
	rank := func(q Pending) int {
		if q.Class == ClassBatch && !agedToInteractive(now, q.Arrival, aging) {
			return 1
		}
		return 0
	}
	best := 0
	for i := 1; i < len(eligible); i++ {
		ri, rb := rank(eligible[i]), rank(eligible[best])
		if ri < rb || (ri == rb && (eligible[i].Arrival < eligible[best].Arrival ||
			(eligible[i].Arrival == eligible[best].Arrival && eligible[i].ID < eligible[best].ID))) {
			best = i
		}
	}
	return best
}

// Victim never preempts.
func (PriorityPolicy) Victim(now float64, blocked Pending, running []Running) int { return -1 }

// Next picks the earliest (deadline, arrival, id) among eligible.
func (SLOPolicy) Next(now float64, eligible []Pending) int {
	best := 0
	for i := 1; i < len(eligible); i++ {
		di, db := eligible[i].Deadline, eligible[best].Deadline
		if di < db || (di == db && (eligible[i].Arrival < eligible[best].Arrival ||
			(eligible[i].Arrival == eligible[best].Arrival && eligible[i].ID < eligible[best].ID))) {
			best = i
		}
	}
	return best
}

// Victim picks the running sequence with the latest deadline, breaking
// ties toward the most recent admission (least work lost), then the
// lowest submission id, and only when that deadline is strictly later
// than the blocked request's.
func (SLOPolicy) Victim(now float64, blocked Pending, running []Running) int {
	if math.IsInf(blocked.Deadline, 1) {
		return -1 // no SLO at stake: wait for capacity
	}
	best := -1
	for i, q := range running {
		if q.Deadline <= blocked.Deadline {
			continue
		}
		if best < 0 || q.Deadline > running[best].Deadline ||
			(q.Deadline == running[best].Deadline && (q.Admitted > running[best].Admitted ||
				(q.Admitted == running[best].Admitted && q.ID < running[best].ID))) {
			best = i
		}
	}
	return best
}

// runningViews projects an in-flight set for Victim, sorted by
// submission ID so indices are deterministic across map iterations.
func runningViews(inflight map[int]*call) []Running {
	out := make([]Running, 0, len(inflight))
	for _, c := range inflight {
		out = append(out, Running{
			ID:        c.req.ID,
			PromptLen: c.req.PromptLen,
			OutputLen: c.req.OutputLen,
			Arrival:   c.req.ArrivalSeconds,
			Admitted:  c.admittedAt,
			Class:     c.class,
			Deadline:  c.deadline(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
