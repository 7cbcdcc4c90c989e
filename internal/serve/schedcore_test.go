package serve

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"zipserv/internal/engine"
)

// --- the heap against a sorted reference ----------------------------

// TestScoreboardOrderAgainstReference drives random push, pop and
// remove-by-slot cycles through one coreHeap — with heavy key ties, so
// the id tie-break decides constantly — against a reference slice kept
// sorted by key, checking the top, the length and every call's slot
// after every step.
func TestScoreboardOrderAgainstReference(t *testing.T) {
	var h coreHeap
	var ref []*call // every filed call, sorted by key
	less := func(a, b *call) bool {
		if a.key.k1 != b.key.k1 {
			return a.key.k1 < b.key.k1
		}
		if a.key.k2 != b.key.k2 {
			return a.key.k2 < b.key.k2
		}
		return a.key.id < b.key.id
	}
	rng := rand.New(rand.NewSource(7))
	for step, nextID := 0, 1; step < 20000; step++ {
		switch op := rng.Intn(6); {
		case len(ref) == 0 || op >= 2:
			// Quantised keys force full (k1, k2) ties.
			k1 := float64(rng.Intn(8)) * 0.5
			switch rng.Intn(16) {
			case 0:
				k1 = math.Inf(1)
			case 1:
				k1 = math.Inf(-1)
			}
			c := &call{}
			c.req.ID = nextID
			nextID++
			h.file(c, k1, float64(rng.Intn(4)))
			i := sort.Search(len(ref), func(i int) bool { return less(c, ref[i]) })
			ref = append(ref, nil)
			copy(ref[i+1:], ref[i:])
			ref[i] = c
		case op == 1:
			if got := heap.Pop(&h).(*call); got != ref[0] {
				t.Fatalf("step %d: pop %+v, want %+v", step, got.key, ref[0].key)
			}
			ref = ref[1:]
		default:
			i := rng.Intn(len(ref))
			c := ref[i]
			if got := heap.Remove(&h, c.slot).(*call); got != c {
				t.Fatalf("step %d: remove by slot %d took %+v, want %+v", step, c.slot, got.key, c.key)
			}
			ref = append(ref[:i], ref[i+1:]...)
		}
		if h.Len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, h.Len(), len(ref))
		}
		for i, c := range h {
			if c.slot != i {
				t.Fatalf("step %d: call %d at index %d has slot %d", step, c.req.ID, i, c.slot)
			}
		}
		if len(ref) > 0 && h[0] != ref[0] {
			t.Fatalf("step %d: top %+v, want %+v", step, h[0].key, ref[0].key)
		}
	}
}

// --- satellite regressions -------------------------------------------

// TestPriorityOutOfOrderArrivalTieBreak pins PriorityPolicy.Next's
// semantics on the inputs the old code got wrong: the pick must not
// depend on the order the caller built the eligible slice in (ties at
// equal rank and equal arrival fall to the submission id, not the
// index), and a future-stamped arrival — negative age, which an
// out-of-order trace can produce — must rank as un-aged batch without
// poisoning the comparison.
func TestPriorityOutOfOrderArrivalTieBreak(t *testing.T) {
	const now = 10.0
	p := PriorityPolicy{AgingSeconds: 5}
	eligible := []Pending{
		{ID: 7, Arrival: 9.5, Class: ClassInteractive},
		{ID: 3, Arrival: 9.5, Class: ClassInteractive}, // same rank, same arrival: id wins
		{ID: 1, Arrival: 11, Class: ClassBatch},        // future-stamped: negative age, stays batch rank
		{ID: 2, Arrival: 4, Class: ClassBatch},         // aged past 5s: interactive rank, earliest arrival
	}
	perm := []int{0, 1, 2, 3}
	for trial := 0; trial < 24; trial++ {
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(perm), func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		view := make([]Pending, len(eligible))
		for i, j := range perm {
			view[i] = eligible[j]
		}
		if got := view[p.Next(now, view)].ID; got != 2 {
			t.Fatalf("perm %v: picked id %d, want 2 (aged batch at earliest arrival)", perm, got)
		}
		// Remove the aged request: the interactive pair ties on
		// (rank, arrival) and must resolve to the lower id from any
		// slice order.
		rest := make([]Pending, 0, 3)
		for _, q := range view {
			if q.ID != 2 {
				rest = append(rest, q)
			}
		}
		if got := rest[p.Next(now, rest)].ID; got != 3 {
			t.Fatalf("perm %v: tie pick id %d, want 3 (lowest id at equal rank+arrival)", perm, got)
		}
	}
	// Exactly at the aging boundary the promotion must fire (age >=
	// aging), matching the heap core's aging calendar (agedToInteractive).
	boundary := []Pending{
		{ID: 5, Arrival: now - 5, Class: ClassBatch},
		{ID: 4, Arrival: now - 1, Class: ClassInteractive},
	}
	if got := boundary[p.Next(now, boundary)].ID; got != 5 {
		t.Fatalf("boundary pick id %d, want 5 (aged exactly AgingSeconds)", got)
	}
}

// TestSLOVictimDeterministicIDTie pins the final victim tie-break: two
// running sequences admitted in the same window carry identical
// (deadline, admitted), and the pick must fall to the lowest id from
// any slice order — the choice the historical scan made implicitly —
// so the reference and the heap core agree.
func TestSLOVictimDeterministicIDTie(t *testing.T) {
	p := SLOPolicy{}
	blocked := Pending{ID: 99, Deadline: 5}
	running := []Running{
		{ID: 11, Deadline: 20, Admitted: 1},
		{ID: 4, Deadline: 20, Admitted: 1},
		{ID: 8, Deadline: 20, Admitted: 1},
		{ID: 2, Deadline: 4, Admitted: 1}, // protected: deadline before blocked's
	}
	perm := []int{0, 1, 2, 3}
	for trial := 0; trial < 24; trial++ {
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(perm), func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		view := make([]Running, len(running))
		for i, j := range perm {
			view[i] = running[j]
		}
		v := p.Victim(0, blocked, view)
		if v < 0 {
			t.Fatalf("perm %v: declined, want a victim", perm)
		}
		if got := view[v].ID; got != 4 {
			t.Fatalf("perm %v: victim id %d, want 4 (lowest id at full tie)", perm, got)
		}
	}
	if v := p.Victim(0, Pending{Deadline: math.Inf(1)}, running); v >= 0 {
		t.Errorf("deadline-free blocked request got victim %d, want decline", v)
	}
}

// TestSLOVictimEqualDeadline pins the strictly-later victim filter at a
// tie: a running sequence whose deadline equals the blocked request's
// is not preempted — two such requests would otherwise preempt each
// other back and forth — by the linear scan or by the core, while one
// with a strictly later deadline is.
func TestSLOVictimEqualDeadline(t *testing.T) {
	sc := SLOPolicy{}.newCore()
	c := fuzzCall(1, 1, ClassInteractive, 1.5) // deadline 2.5
	sc.runningAdd(c)
	running := runningViews(map[int]*call{1: c})
	for _, tc := range []struct {
		blocked float64
		preempt bool
	}{{2.5, false}, {2, true}} {
		linear := SLOPolicy{}.Victim(0, Pending{ID: 2, Deadline: tc.blocked}, running) >= 0
		_, core := sc.victim(tc.blocked)
		if linear != tc.preempt || core != tc.preempt {
			t.Errorf("blocked deadline %g vs running 2.5: linear preempts %v, core %v, want %v",
				tc.blocked, linear, core, tc.preempt)
		}
	}
}

// --- linear vs heap-core equivalence ----------------------------------

// fuzzCall builds the minimal call a schedCore needs.
func fuzzCall(id int, arrival float64, class Class, ttft float64) *call {
	c := &call{class: class, ttftSLO: ttft}
	c.req.ID = id
	c.req.ArrivalSeconds = arrival
	return c
}

func fuzzPending(c *call) Pending {
	return Pending{ID: c.req.ID, Arrival: c.req.ArrivalSeconds, Class: c.class, Deadline: c.deadline()}
}

// FuzzPolicyEquivalence drains randomized pending sets through a
// built-in policy's linear reference scan (policy_linear_test.go) and
// through the heap core, then does the same for victim selection over
// a randomized running batch, asserting identical choices at every
// step. Keys are quantised to a coarse grid so full-key ties — where
// the two implementations are most likely to diverge — occur
// constantly, and the blocked request's deadline is sometimes drawn
// from the running batch's, so the strictly-later victim filter is
// exercised at a tie.
func FuzzPolicyEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(1))
	f.Add(uint64(3), uint8(40), uint8(2))
	f.Add(uint64(8), uint8(40), uint8(2)) // victim drain through admission-order ties
	f.Add(uint64(99), uint8(64), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, kind uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		var p linearPolicy
		switch kind % 3 {
		case 0:
			p = FIFOPolicy{}
		case 1:
			p = PriorityPolicy{AgingSeconds: 4}
		case 2:
			p = SLOPolicy{}
		}
		sc := p.newCore()
		now := 8.0
		count := int(n%64) + 1
		calls := make([]*call, 0, count)
		for i := 0; i < count; i++ {
			arrival := float64(rng.Intn(12)) // 0..11: some stamped past now
			class := ClassInteractive
			if rng.Intn(2) == 0 {
				class = ClassBatch
			}
			ttft := 0.0
			if rng.Intn(2) == 0 {
				ttft = float64(rng.Intn(4)) + 0.5
			}
			c := fuzzCall(i+1, arrival, class, ttft)
			calls = append(calls, c)
			sc.add(c)
		}

		// Admission drain: at each step the linear reference filters and
		// scans the remaining views while the core promotes and peeks.
		remaining := append([]*call(nil), calls...)
		views := make([]Pending, 0, count)
		for {
			views = views[:0]
			for _, c := range remaining {
				if c.req.ArrivalSeconds <= now {
					views = append(views, fuzzPending(c))
				}
			}
			sc.promote(now)
			got, ok := sc.peek()
			if len(views) == 0 {
				if ok {
					t.Fatalf("core eligible %d, linear view empty", got.req.ID)
				}
				break
			}
			if !ok {
				t.Fatalf("linear view has %d eligible, core empty", len(views))
			}
			want := views[p.Next(now, views)].ID
			if got.req.ID != want {
				t.Fatalf("policy %s: linear admits %d, core admits %d (eligible %v)",
					p.Name(), want, got.req.ID, views)
			}
			sc.pop()
			for i, c := range remaining {
				if c.req.ID == want {
					remaining = append(remaining[:i], remaining[i+1:]...)
					break
				}
			}
		}

		// Victim drain (SLO only): the same calls as a running batch,
		// admitted in quantised same-window groups to force full ties,
		// on a fresh core — calls still stamped in the future stay filed
		// in the drained one, and a call sits in one core's heap at a
		// time.
		slo, isSLO := p.(SLOPolicy)
		if !isSLO {
			return
		}
		sc = p.newCore()
		running := map[int]*call{}
		for _, c := range calls {
			c.admittedAt = float64(rng.Intn(3))
			running[c.req.ID] = c
			sc.runningAdd(c)
		}
		blocked := Pending{ID: count + 1, Deadline: math.Inf(1)}
		switch rng.Intn(4) {
		case 0: // no SLO at stake: never preempts
		case 1: // a running deadline (ending in .5): the filter's tie
			blocked.Deadline = calls[rng.Intn(count)].deadline()
		default:
			blocked.Deadline = float64(rng.Intn(10))
		}
		for {
			views := runningViews(running)
			v := slo.Victim(now, blocked, views)
			gotID, ok := sc.victim(blocked.Deadline)
			if v < 0 {
				if ok {
					t.Fatalf("linear declines a victim, core picks %d", gotID)
				}
				break
			}
			if !ok {
				t.Fatalf("linear picks victim %d, core declines", views[v].ID)
			}
			if gotID != views[v].ID {
				t.Fatalf("linear victim %d, core victim %d (running %v)", views[v].ID, gotID, views)
			}
			sc.runningRemove(running[gotID])
			delete(running, gotID)
		}
	})
}

// --- golden replay schedules -----------------------------------------

// checkGoldenSchedule compares one scenario's replay against
// testdata/golden/schedules.txt, recorded from the linear policy scan
// and the bitmap-scoreboard core that preceded the heap core, while the
// server still ran both (the two agreed byte for byte). Each line is "scenario request admitted
// first_token finished preempted", virtual seconds in shortest
// round-trip form so any bit of drift shows.
func checkGoldenSchedule(t *testing.T, scenario string, results []Result) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "schedules.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, scenario+" ") {
			want = append(want, line)
		}
	}
	if len(results) != len(want) {
		t.Fatalf("%s: %d requests replayed, golden has %d", scenario, len(results), len(want))
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for i, r := range results {
		got := fmt.Sprintf("%s %d %s %s %s %d", scenario, i, g(r.Admitted), g(r.FirstToken), g(r.Finished), r.Preempted)
		if got != want[i] {
			t.Fatalf("%s request %d diverges from the golden schedule:\n got  %s\n want %s", scenario, i, got, want[i])
		}
	}
}

// TestScoreboardReplayMatchesLinear is the whole-server differential:
// for every built-in policy, the mixed trace replayed through the
// server must reproduce the golden schedule recorded from the linear
// path — admission, first-token and finish stamps, and preemption
// counts, byte for byte.
func TestScoreboardReplayMatchesLinear(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	reqs := mixedTrace(48)
	for _, p := range []Policy{FIFOPolicy{}, PriorityPolicy{}, SLOPolicy{}} {
		cfg := Config{Engine: eng, QueueDepth: len(reqs), MaxBatch: 8, Policy: p}
		results, _ := replay(t, cfg, reqs)
		checkGoldenSchedule(t, "replay/"+p.Name(), results)
	}
}

// TestScoreboardPreemptionMatchesLinear replays the preemption-heavy
// SLO scenario (capacity-pinning hogs vs an urgent deadline, chunked
// prefill): victim choices — and hence the whole schedule — must match
// the golden schedule recorded from the linear path.
func TestScoreboardPreemptionMatchesLinear(t *testing.T) {
	eng := testEngine(t, engine.BackendZipServ)
	plan := eng.Plan()
	hogTokens := (plan.Blocks - 4) / 2 * 16
	reqs := []Request{
		{PromptLen: hogTokens / 2, OutputLen: hogTokens - hogTokens/2, Arrival: 0, Class: ClassBatch},
		{PromptLen: hogTokens / 2, OutputLen: hogTokens - hogTokens/2, Arrival: 0, Class: ClassBatch},
		{PromptLen: 256, OutputLen: 64, Arrival: 0.001, Class: ClassInteractive, TTFTDeadline: 1},
	}
	cfg := Config{Engine: eng, QueueDepth: 8, PrefillChunkTokens: 128, Policy: SLOPolicy{}}
	results, _ := replay(t, cfg, reqs)
	checkGoldenSchedule(t, "preempt/slo", results)
	preempts := 0
	for _, r := range results {
		preempts += r.Preempted
	}
	if preempts == 0 {
		t.Fatal("no preemption occurred: the differential is vacuous")
	}
}
