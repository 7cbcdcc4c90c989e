// Command perfbench is the repository's serving benchmark. For one
// workload it either drives a prebuilt zipserv-server over loopback
// HTTP and reports the end-to-end metrics (-trace 0), or runs the same
// request streams through each layer's public entry points in turn —
// HTTP, the serve backend, engine.Stepper, kvcache.Manager, the cost
// model and the codec — and reports per-layer metrics (-trace 1). The
// last line of standard output is one JSON object with the verdict of
// every correctness check and the metrics, each with its unit.
//
// Usage (normally through run.py, which builds both binaries):
//
//	perfbench -server zipserv-server -workload chat-unique -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload name: chat-unique, tenants-compressed, disagg-long")
	seed := flag.Int64("seed", 1, "seed of the generated request streams")
	seconds := flag.Float64("seconds", 30, "measured duration of one run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics over HTTP; 1: traced per-layer ladder")
	serverBin := flag.String("server", "", "path to a built zipserv-server binary")
	spansPath := flag.String("spans", "", "traced run: write the recorded spans here as JSON lines")
	flag.Parse()

	w, err := workloadByName(*workloadName)
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	// The generator holds at most nproc connections and runs on nproc
	// threads; the server gets the same machine.
	runtime.GOMAXPROCS(runtime.NumCPU())

	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		if *serverBin == "" {
			fail(fmt.Errorf("-server is required"))
		}
		res, err = runEndToEnd(w, *seed, dur, *serverBin)
	} else {
		res, err = runLadder(w, *seed, dur, *spansPath)
	}
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// fail exits without a result. A server still running dies with this
// process (startServer sets Pdeathsig).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// How a run's measured time is split. The warm-up fills the prefix
// caches before anything is timed. The open loop gets between
// minOpenRequests and maxOpenRequests requests; the closed loop gets the
// rest of the run.
const (
	warmShare = 0.05
	openShare = 0.6
	// setupStarts is how many times the server is started per run;
	// setup_s is their median.
	setupStarts = 21
	// rounds is how many closed-loop windows and open-loop segments the
	// measured time alternates between.
	rounds          = 12
	minOpenRequests = 600
	maxOpenRequests = 9000
	// openWindow is how many consecutive arrivals make one open-loop
	// latency window, so each window's p90 has five requests beyond it.
	openWindow = 50
	// Each figure is taken from the quartile of its windows on the good
	// side: the upper quartile of the closed-loop window rates and the
	// lower quartile of the open-loop window latencies. Interference from
	// other tenants of a shared machine only ever lowers a rate or adds
	// latency, and it comes in stretches of seconds; such a stretch over
	// up to three quarters of the windows leaves the figure unmoved, while
	// a slower program moves every window.
	rateWindowQuantile = 0.75
	latWindowQuantile  = 0.25
)

// openRequests is the number of open-loop requests a run of dur sends.
func openRequests(w *workload, dur time.Duration) int {
	n := int(math.Ceil(w.openRate * openShare * dur.Seconds()))
	return min(max(n, minOpenRequests), maxOpenRequests)
}

// closedDuration is what remains of dur for the closed loop.
func closedDuration(w *workload, dur time.Duration) time.Duration {
	open := time.Duration(float64(openRequests(w, dur)) / w.openRate * float64(time.Second))
	return max(time.Duration((1-warmShare)*float64(dur))-open, dur/10)
}

// poolSize is the number of requests drawn for a closed-loop phase:
// enough for eight times the open-loop rate. That is above the capacity
// of every workload that caches prompts, so their pools never wrap
// (chat-unique may wrap, which repeats nothing a cache could reuse).
func poolSize(w *workload, d time.Duration) int {
	return int(math.Ceil(8*w.openRate*d.Seconds())) + 64
}

func drawPool(w *workload, seed int64, stream string, n int) ([]request, *generator) {
	g := newGenerator(w, seed, stream)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = g.next(w)
	}
	return reqs, g
}

// streams draws every request a run sends, before anything is timed.
type streams struct {
	warm, closed, open []request
	due                []time.Duration
	hash               string
}

func drawStreams(w *workload, seed int64, dur time.Duration) streams {
	var s streams
	warmDur := time.Duration(warmShare * float64(dur))
	closedDur := closedDuration(w, dur)
	openN := openRequests(w, dur)
	var gw, gc, gb *generator
	s.warm, gw = drawPool(w, seed, "warm", poolSize(w, warmDur))
	s.closed, gc = drawPool(w, seed, "closed", poolSize(w, closedDur))
	s.open, gb = drawPool(w, seed, "open", openN)
	s.due = pacedSchedule(gb, openN, w.openRate)
	s.hash = gw.hash() + gc.hash() + gb.hash()
	return s
}

func runEndToEnd(w *workload, seed int64, dur time.Duration, bin string) (result, error) {
	res := result{Metrics: metrics{}}
	s := drawStreams(w, seed, dur)
	fmt.Printf("workload %s seed %d: request stream hash %s (%d closed-loop, %d open-loop requests at %g/s)\n",
		w.name, seed, s.hash, len(s.closed), len(s.open), w.openRate)

	// Set-up: exec to first healthy answer, several times; the last
	// server stays up for the measured phases.
	var setups []float64
	var srv *serverProc
	for i := 0; i < setupStarts; i++ {
		p, took, err := startServer(bin, w.deploy.flags())
		if err != nil {
			return res, err
		}
		setups = append(setups, took.Seconds())
		if i < setupStarts-1 {
			p.stop()
		} else {
			srv = p
		}
	}
	defer srv.stop()

	conns := runtime.NumCPU()
	send := httpSender(newHTTPClient(conns), srv.base)
	warm := closedLoop(s.warm, 0, conns, time.Duration(warmShare*float64(dur)), send)

	// The measured time alternates between closed-loop windows and
	// open-loop segments, so a stretch of interference from other tenants
	// of the machine falls on both phases' windows in proportion instead
	// of on one whole phase.
	var closed, open phase
	var rates []float64
	var cpu float64
	next := 0
	for i := 0; i < rounds; i++ {
		p := closedLoop(s.closed, next, conns, closedDuration(w, dur)/rounds, send)
		next += p.sent
		rates = append(rates, p.rate())
		closed.add(p)

		lo, hi := i*len(s.open)/rounds, (i+1)*len(s.open)/rounds
		due := make([]time.Duration, hi-lo)
		for j := range due {
			due[j] = s.due[lo+j] - s.due[lo]
		}
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return res, err
		}
		p = openLoop(s.open[lo:hi], due, conns, send)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return res, err
		}
		cpu += cpu1 - cpu0
		open.add(p) // keeps open.lat in arrival order
	}
	var means, p90s []float64
	for lo := 0; lo+openWindow <= len(open.lat); lo += openWindow {
		win := append([]float64(nil), open.lat[lo:lo+openWindow]...)
		means = append(means, mean(win))
		p90s = append(p90s, percentile(win, 0.90))
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return res, err
	}
	st, err := srv.stats()
	if err != nil {
		return res, err
	}

	for _, ph := range []struct {
		name string
		p    *phase
	}{{"warm-up", &warm}, {"closed", &closed}, {"open", &open}} {
		fmt.Printf("phase %-7s sent %d succeeded %d failed %d in %.2fs\n",
			ph.name, ph.p.sent, ph.p.ok, ph.p.failed, ph.p.elapsed.Seconds())
		if ph.p.firstErr != nil {
			fmt.Printf("phase %-7s first failure: %v\n", ph.name, ph.p.firstErr)
		}
	}
	// p99 is printed, not scored: on a shared 2-vCPU machine it moved
	// twofold between runs of the same code.
	fmt.Printf("open loop: %d windows, p99 over all %d requests %.3f ms\n",
		len(p90s), len(open.lat), finiteMs(percentile(open.lat, 0.99)))
	var checks []error
	for _, p := range []phase{warm, closed, open} {
		if p.checkFailures > 0 {
			checks = append(checks, fmt.Errorf("%d responses failed their checks, first: %v", p.checkFailures, p.firstErr))
		}
	}
	succeeded := int64(warm.ok + closed.ok + open.ok)
	if st.Completed != succeeded || st.Failed != 0 {
		checks = append(checks, fmt.Errorf("/v1/stats completed=%d failed=%d, client saw %d successes",
			st.Completed, st.Failed, succeeded))
	}
	if err := w.expect(st); err != nil {
		checks = append(checks, err)
	}
	for _, c := range checks {
		fmt.Println("CHECK FAILED:", c)
	}
	res.Correct = len(checks) == 0
	res.Attempted = closed.sent + open.sent
	res.Failed = closed.failed + open.failed

	m := res.Metrics
	m.set("setup_s", "s", median(setups))
	m.set("req_per_s", "1/s", percentile(rates, rateWindowQuantile))
	// The mean rather than the median: tenants-compressed's service time
	// has two modes, near 7 and 12 ms, and its median jumped between them
	// from one run of the same code to the next.
	m.set("lat_mean_ms", "ms", finiteMs(percentile(means, latWindowQuantile)))
	m.set("lat_p90_ms", "ms", finiteMs(percentile(p90s, latWindowQuantile)))
	// CPU is summed over the open-loop segments: /proc counts it in 10 ms
	// ticks, too coarse for one window.
	m.set("server_cpu_us_per_req", "us", cpu/float64(max(open.ok, 1))*1e6)
	m.set("peak_rss_mb", "MB", rss)
	m.set("ok_frac", "frac", frac(float64(closed.ok+open.ok), float64(res.Attempted)))
	return res, nil
}

// missedMs stands in for the latency of a request that never completed.
const missedMs = 1e9

func finiteMs(sec float64) float64 {
	if math.IsInf(sec, 0) {
		return missedMs
	}
	return sec * 1e3
}
