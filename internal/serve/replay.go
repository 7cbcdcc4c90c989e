package serve

import (
	"fmt"
	"math"
	"time"
)

// Replay is the second driver of step (server.go): it runs a trace
// through b on the calling goroutine, in virtual time, with no
// scheduler goroutine, no wall-clock pacing and no admission window, so
// the same backend, trace and fault plan give byte-identical results on
// any GOMAXPROCS. b is an unstarted *Server or a *Router over unstarted
// servers. Replay submits reqs through b's own Submit, wave requests at
// a time (all at once when wave <= 0), and after each wave steps the
// fleet until no replica holds an event it can run: always the replica
// whose next iteration is earliest in virtual time, ties to the lowest
// index. That is conservative discrete-event simulation with an exactly
// known frontier, so a handoff, a resurrection or a wave's routing sees
// the load every replica carries at that instant. Handoffs and
// resurrections are plain calls on the caller's goroutine.
//
// When the last wave has run dry, each hung replica gives up what it
// holds: lost requests resurrect on the rest of the fleet under health
// routing, and fail otherwise. The fleet is left stopped, so a later
// Stop returns at once. Replay returns one Result per request, in
// order (a submission b refused carries the refusal as its Err), and an
// error only for a backend it cannot step. Scripted crashes and hangs
// fire on each replica's own virtual clock, exactly as under Start.
// Config.AdmissionWindow and Config.TimeScale act only on the live
// driver.
func Replay(b Backend, reqs []Request, wave int) ([]Result, error) {
	servers, err := replicasOf(b)
	if err != nil {
		return nil, err
	}
	f := &replayFleet{servers: servers, dead: make([]bool, len(servers))}
	for i, s := range servers {
		if !s.claimStart() {
			f.stop(i)
			return nil, fmt.Errorf("serve: replay needs unstarted servers; replica %d was started", i)
		}
	}
	if wave <= 0 {
		wave = len(reqs)
	}
	tickets := make([]*Ticket, len(reqs))
	results := make([]Result, len(reqs))
	for lo := 0; lo < len(reqs); lo += wave {
		if lo > 0 {
			f.run() // the previous wave runs dry first
		}
		for i := lo; i < min(lo+wave, len(reqs)); i++ {
			tickets[i], results[i].Err = b.Submit(reqs[i])
		}
	}
	f.finish()
	for i, tk := range tickets {
		if tk == nil {
			continue
		}
		select {
		case results[i] = <-tk.Result():
		default: // unreachable: the finished fleet holds nothing
			return nil, fmt.Errorf("serve: replay ended without a result for request %d", i)
		}
	}
	return results, nil
}

// replicasOf returns the servers a replay steps, in router order.
func replicasOf(b Backend) ([]*Server, error) {
	switch b := b.(type) {
	case *Server:
		return []*Server{b}, nil
	case *Router:
		out := make([]*Server, len(b.replicas))
		for i, l := range b.replicas {
			s, ok := l.(*Server)
			if !ok {
				return nil, fmt.Errorf("serve: replay steps servers; router replica %d is %T", i, l)
			}
			out[i] = s
		}
		return out, nil
	}
	return nil, fmt.Errorf("serve: cannot replay a %T", b)
}

// claimStart takes the server's one start for the replay driver, so a
// later Start launches no loop; false when it was already started.
func (s *Server) claimStart() bool {
	claimed := false
	s.startOnce.Do(func() {
		claimed = true
		s.startedAt.Store(time.Now().UnixNano())
	})
	return claimed
}

// replayFleet is the replay driver's view of the fleet: the servers, and
// which of them exited. A hung replica is stepped no more, so its clock,
// and with it hung, stays where the hang began.
type replayFleet struct {
	servers []*Server
	dead    []bool
}

// run steps the fleet until no replica has an event it can run.
func (f *replayFleet) run() {
	for {
		i := f.earliest()
		if i < 0 {
			return
		}
		if _, ok := f.servers[i].step(); !ok {
			f.dead[i] = true
		}
	}
}

// earliest applies each running replica's scripted crash, then takes
// the survivors' arrivals and handoffs off their channels — a crash's
// resurrections included — and returns the replica whose next
// iteration is earliest in virtual time, the lowest index on ties; -1
// when none has one. A hung replica is left undrained, as its wedged
// loop would leave it.
func (f *replayFleet) earliest() int {
	for i, s := range f.servers {
		if !f.dead[i] && s.crashed() {
			f.dead[i] = true
		}
	}
	best, at := -1, math.Inf(1)
	for i, s := range f.servers {
		if f.dead[i] || s.hung() {
			continue
		}
		s.drain()
		s.publishLoad()
		if t := s.nextEvent(); t < at {
			best, at = i, t
		}
	}
	return best
}

// finish runs the fleet dry and ends the replay: every hung replica
// gives up what it holds, the rest run dry again (serving what was
// resurrected, or hanging in turn), and then every replica stops.
func (f *replayFleet) finish() {
	f.run()
	for f.giveUp() {
		f.run()
	}
	f.stop(len(f.servers))
}

// giveUp stops every hung replica that still holds its requests, as
// Stop stops a wedged loop, and reports whether there was one.
func (f *replayFleet) giveUp() bool {
	gaveUp := false
	for i, s := range f.servers {
		if !f.dead[i] && s.hung() {
			s.exit(errHung, true)
			f.dead[i], gaveUp = true, true
		}
	}
	return gaveUp
}

// stop stops the first n servers, which the replay claimed and has run
// dry: their gates close, and Stop returns at once.
func (f *replayFleet) stop(n int) {
	for _, s := range f.servers[:n] {
		s.closeGate()
		close(s.done)
	}
}

// nextEvent is the virtual time of the replica's next iteration: its
// clock while it holds work it can run now, else the earliest queued
// arrival or pending handoff transfer, never before its clock; +Inf
// when it holds nothing.
func (s *Server) nextEvent() float64 {
	now := s.sp.Clock()
	if s.sp.InFlight() > 0 || s.core.len() > len(s.core.future) {
		return now
	}
	t := s.core.nextArrival()
	for _, h := range s.pendingHO {
		t = min(t, h.exp.ExportedAt+h.exp.TransferSeconds)
	}
	return max(now, t)
}
