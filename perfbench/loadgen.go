package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sender performs one request and checks its result; nil means the
// request succeeded and passed every per-response check.
type sender func(r request) error

// genResponse is the subset of the /v1/generate result the checks read
// (the same fields serve.Result carries in-process).
type genResponse struct {
	PromptLen    int     `json:"prompt_len"`
	OutputLen    int     `json:"output_len"`
	CachedTokens int     `json:"cached_tokens"`
	TTFT         float64 `json:"ttft_seconds"`
	Latency      float64 `json:"latency_seconds"`
}

// errCheck marks a response that arrived but violated a correctness
// check, as opposed to a refused or failed request.
type errCheck struct{ msg string }

func (e errCheck) Error() string { return e.msg }

// checkResponse applies the per-response invariants: the lengths are
// echoed, the cache never claims more than the prompt, and the first
// token never comes after the last.
func checkResponse(r request, got genResponse) error {
	switch {
	case got.PromptLen != r.PromptLen || got.OutputLen != r.OutputLen:
		return errCheck{fmt.Sprintf("echoed lengths %d/%d, sent %d/%d",
			got.PromptLen, got.OutputLen, r.PromptLen, r.OutputLen)}
	case got.CachedTokens < 0 || got.CachedTokens > r.PromptLen:
		return errCheck{fmt.Sprintf("cached_tokens %d outside [0, %d]", got.CachedTokens, r.PromptLen)}
	case got.TTFT > got.Latency || got.TTFT < 0:
		return errCheck{fmt.Sprintf("ttft %g exceeds latency %g", got.TTFT, got.Latency)}
	}
	return nil
}

// newHTTPClient returns a client holding at most conns connections to
// the server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// httpSender posts to /v1/generate and checks the response.
func httpSender(client *http.Client, base string) sender {
	url := base + "/v1/generate"
	return func(r request) error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(r.Body))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		var got genResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return errCheck{fmt.Sprintf("undecodable result: %v", err)}
		}
		return checkResponse(r, got)
	}
}

// phase is the outcome of one load phase.
type phase struct {
	sent, ok, failed int
	checkFailures    int
	firstErr         error
	elapsed          time.Duration
	// lat holds one latency per request sent, in seconds; failed
	// requests are +Inf (they miss every latency limit).
	lat []float64
	// late holds, in the open loop, how far past its due time each
	// request was actually sent, in seconds.
	late []float64
}

func (p *phase) add(q phase) {
	p.sent += q.sent
	p.ok += q.ok
	p.failed += q.failed
	p.checkFailures += q.checkFailures
	p.elapsed += q.elapsed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
}

func (p *phase) record(err error, lat float64) {
	p.sent++
	if err != nil {
		p.failed++
		if _, ok := err.(errCheck); ok {
			p.checkFailures++
		}
		if p.firstErr == nil {
			p.firstErr = err
		}
		lat = math.Inf(1)
	} else {
		p.ok++
	}
	p.lat = append(p.lat, lat)
}

func (p *phase) rate() float64 { return float64(p.ok) / p.elapsed.Seconds() }

// closedLoop runs `clients` callers that each send their next request
// as soon as the previous one completes, drawing from reqs in order from
// index `from` (wrapping if the phase outlasts the pool), for dur.
func closedLoop(reqs []request, from, clients int, dur time.Duration, send sender) phase {
	var next atomic.Int64
	next.Store(int64(from))
	parts := make([]phase, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for time.Since(start) < dur {
				r := reqs[int(next.Add(1)-1)%len(reqs)]
				t0 := time.Now()
				err := send(r)
				p.record(err, time.Since(t0).Seconds())
			}
		}(&parts[c])
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start)}
	for _, p := range parts {
		out.add(p)
	}
	return out
}

// openLoop sends reqs[i] at start+due[i] regardless of completions,
// through at most `conns` concurrent senders. A request is timed from
// when it was due, so a stalled generator or a saturated connection
// pool counts against latency instead of hiding queueing.
func openLoop(reqs []request, due []time.Duration, conns int, send sender) phase {
	idx := make(chan int, len(reqs)) // sized to the number of sends
	for i := range reqs {
		idx <- i
	}
	close(idx)
	parts := make([]phase, conns)
	lat := make([]float64, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for i := range idx {
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				p.late = append(p.late, time.Since(at).Seconds())
				err := send(reqs[i])
				p.record(err, time.Since(at).Seconds())
				lat[i] = p.lat[len(p.lat)-1]
			}
		}(&parts[c])
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start)}
	for _, p := range parts {
		out.add(p)
	}
	out.lat = lat // in arrival order, so a caller can split it into windows
	return out
}

// pacedJitter is the share of each 1/rate slot an arrival may move by:
// consecutive arrivals are between 1−pacedJitter and 1+pacedJitter slots
// apart.
const pacedJitter = 0.5

// pacedSchedule returns n arrival offsets at the given mean rate: one
// arrival at a seeded uniform point of the middle pacedJitter of each
// 1/rate slot. The rate is fixed and arrivals stay random, without the
// clusters of a Poisson stream, and no two arrivals come closer than half
// a slot. At a quarter of capacity that is longer than a request's
// service time, so p90 measures service time; with arrivals anywhere in
// their slot, the share of requests queued behind a neighbour grew
// nonlinearly when the machine slowed, and p90 moved with it.
func pacedSchedule(g *generator, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	var buf [8]byte
	for i := range due {
		at := float64(i) + (1-pacedJitter)/2 + pacedJitter*g.rng.Float64()
		due[i] = time.Duration(at / rate * float64(time.Second))
		for k := range buf {
			buf[k] = byte(uint64(due[i]) >> (8 * k))
		}
		g.fold(buf[:])
	}
	return due
}
