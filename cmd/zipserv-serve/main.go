// Command zipserv-serve runs the end-to-end serving simulation (§6.5)
// for one deployment. Each invocation runs exactly one mode. Selecting
// two modes, setting a flag the selected mode does not read, or a
// non-positive size, rate or time is a usage error (exit status 2).
//
// By default it prints latency, throughput and the memory plan of one
// request batch; -compare runs all four serving backends side by side.
//
// With -live it replays a synthetic Poisson trace through the live
// continuous-batching scheduler (internal/serve) and through the offline
// static-batch path, and reports the goodput gain of iteration-level
// scheduling with token-packed prefill.
//
// The -compare-X modes replay one workload through several live fleet
// configurations and print one row per configuration. -csv writes the
// same cells as CSV, and -require-X-win turns the comparison into a CI
// gate that exits non-zero with a "perf regression" error when the win
// does not hold. Each mode is one row of the scenario table in
// scenarios.go, and -h names the workload flags each one reads. Every
// fleet replays on one goroutine in virtual time (zipserv.ReplayLive),
// never paced against the wall clock, so every mode's CSV reproduces
// byte for byte and is pinned in testdata/golden:
//
// -compare-policies replays one mixed interactive/batch trace under each
// admission policy (fifo, priority, slo) and reports per-class TTFT
// percentiles: class- and deadline-aware admission against FIFO
// head-of-line blocking.
//
// -compare-chunking replays short decoders mixed with 16x-long prompts
// under each prefill chunk budget (monolithic, 64, 256, 1024 tokens)
// and reports decode TPOT and the worst inter-token stall.
//
// -compare-prefix replays requests that share one long prompt prefix
// with the KV prefix cache off and on, and reports TTFT and the prefill
// tokens actually computed.
//
// -compare-compress replays shared-prefix requests interleaved with
// flushers sized to a deliberately tiny KV plan, with the compressed
// cold-block cache off and on: frozen TCA-TBE blocks keep prefix hits
// that plain parking loses.
//
// -compare-adaptive replays bursts of shared-prefix decoders and long
// prompts under each static chunk budget and under the adaptive
// controllers driven by -target-step-time, and reports decode TPOT.
//
// -compare-disagg replays chat decoders with long prompts landing
// mid-decode through co-located two-replica fleets and a disaggregated
// prefill/decode pair whose KV handoff runs through the TCA-TBE codec.
//
// -compare-affinity drives waves of multi-tenant shared-prefix requests
// through four replicas behind the least-loaded router with and without
// prefix-affinity dispatch, and reports fleet prefix hits and TTFT.
//
// -compare-chaos replays one workload through three replicas under a
// scripted crash and slowdown, with and without health-aware routing,
// twice each, and reports losses, resurrections and whether each replay
// reproduced.
//
// Usage:
//
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -batch 32 -out 2048
//	zipserv-serve -model LLaMA3.1-70B -device L40S -gpus 4 -compare
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -live -requests 64 -rate 100
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -compare-policies -requests 64 -csv policies.csv
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -compare-chunking -requests 40 -csv chunking.csv
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -compare-prefix -requests 40 -csv prefix.csv
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -compare-compress -requests 8 -require-compress-win
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -compare-adaptive -target-step-time 30ms -require-adaptive-win
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -compare-disagg -requests 48 -require-disagg-win
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -compare-affinity -requests 64 -require-affinity-win
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -compare-chaos -requests 64 -require-chaos-win
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"zipserv"
)

func main() {
	model := flag.String("model", "LLaMA3.1-8B", "model name from the zoo")
	device := flag.String("device", "RTX4090", "GPU model")
	gpus := flag.Int("gpus", 1, "tensor-parallel degree")
	backend := flag.String("backend", "zipserv", "serving backend: zipserv, vllm, transformers, dfloat11")
	batch := flag.Int("batch", 32, "request batch size")
	prompt := flag.Int("prompt", 128, "prompt length in tokens")
	out := flag.Int("out", 512, "output length in tokens")
	compareBackends := flag.Bool("compare", false, "run all four backends and compare")
	live := flag.Bool("live", false, "replay a synthetic trace through the live continuous-batching scheduler")
	targetStepTime := flag.Duration("target-step-time", 30*time.Millisecond,
		"compare-adaptive: the adaptive controller's combined step-time target (TPOT SLO)")
	csvPath := flag.String("csv", "", "compare modes: also write the comparison as CSV to this path")
	requests := flag.Int("requests", 64, "number of requests in the workload; a compare mode may round it up to whole bursts or waves")
	rate := flag.Float64("rate", 100, "arrival rate in req/s: of the Poisson trace, or the steady spacing of -compare-prefix")
	seed := flag.Int64("seed", 7, "seed of the Poisson trace")
	selected, armed := make([]*bool, len(scenarios)), make([]*bool, len(scenarios))
	for i, sc := range scenarios {
		selected[i] = flag.Bool("compare-"+sc.name, false, fmt.Sprintf("%s (reads -%s)", sc.about, strings.Join(sc.reads, ", -")))
		armed[i] = new(bool)
		if sc.gate != "" {
			armed[i] = flag.Bool("require-"+sc.name+"-win", false,
				fmt.Sprintf("compare-%s: exit non-zero unless %s (CI gate)", sc.name, sc.gate))
		}
	}
	flag.Parse()

	// Resolve the one selected mode and the flags it reads beyond the
	// deployment flags every mode reads.
	mode, reads := "the offline mode", []string{"batch", "prompt", "out", "compare"}
	var modes []string
	if *live {
		mode, reads = "-live", []string{"requests", "rate", "prompt", "out", "seed"}
		modes = append(modes, mode)
	}
	var sc *scenario
	var gated bool
	for i := range scenarios {
		if *selected[i] {
			sc, gated = &scenarios[i], *armed[i]
			mode, reads = "-compare-"+sc.name, append(append([]string(nil), sc.reads...), "csv")
			if sc.gate != "" {
				reads = append(reads, "require-"+sc.name+"-win")
			}
			modes = append(modes, mode)
		}
	}
	if len(modes) > 1 {
		usageError("%s each select a mode; pick one", strings.Join(modes, " and "))
	}
	allowed := map[string]bool{"model": true, "device": true, "gpus": true, "backend": true, strings.TrimPrefix(mode, "-"): true}
	for _, name := range reads {
		allowed[name] = true
	}
	flag.Visit(func(f *flag.Flag) {
		if !allowed[f.Name] {
			usageError("-%s does not apply to %s, which reads -%s", f.Name, mode, strings.Join(reads, ", -"))
		}
	})
	positive := map[string]bool{"gpus": *gpus > 0, "batch": *batch > 0, "prompt": *prompt > 0, "out": *out > 0,
		"requests": *requests > 0, "rate": *rate > 0, "target-step-time": *targetStepTime > 0}
	for _, name := range append(reads, "gpus") {
		if ok, sized := positive[name]; sized && !ok {
			usageError("-%s must be positive, got %s", name, flag.Lookup(name).Value)
		}
	}

	m, err := zipserv.ModelByName(*model)
	exitOn(err)
	dev, err := zipserv.GPUByName(*device)
	exitOn(err)
	p := params{
		serving:  zipserv.ServingConfig{Model: m, Device: dev, NumGPUs: *gpus, Backend: zipserv.ServingBackend(*backend)},
		deploy:   fmt.Sprintf("%s on %dx %s", *model, *gpus, *device),
		requests: *requests, rate: *rate, prompt: *prompt, out: *out, seed: *seed,
		target: targetStepTime.Seconds(),
	}
	switch {
	case sc != nil:
		exitOn(compare(sc, p, *csvPath, gated))
	case *live:
		exitOn(runLive(p))
	default:
		runOffline(p, *batch, *compareBackends)
	}
}

// exitOn ends the run with exit status 1 when err is set.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "zipserv-serve:", err)
		os.Exit(1)
	}
}

// usageError reports a flag combination no mode would honour and exits
// with the status flag parsing errors use.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "zipserv-serve: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "usage: zipserv-serve [-compare | -live | -compare-<mode> [-require-<mode>-win] [-csv file]] [flags]; -h lists them")
	os.Exit(2)
}

// runOffline prints one deployment's offline batch simulation, or all four
// backends' with compare.
func runOffline(p params, batch int, compare bool) {
	backends := []zipserv.ServingBackend{p.serving.Backend}
	if compare {
		backends = []zipserv.ServingBackend{
			zipserv.ServeZipServ, zipserv.ServeVLLM, zipserv.ServeTransformers, zipserv.ServeDFloat11,
		}
	}

	fmt.Printf("deployment: %s, batch %d, prompt %d, output %d\n\n", p.deploy, batch, p.prompt, p.out)
	fmt.Printf("%-14s %12s %14s %10s %8s %12s %12s\n",
		"backend", "latency(s)", "tput(tok/s)", "waves", "conc", "weights(GiB)", "KV cap(GiB)")
	var base float64
	for _, b := range backends {
		cfg := p.serving
		cfg.Backend = b
		eng, err := zipserv.NewEngine(cfg)
		if errors.Is(err, zipserv.ErrEngineDoesNotFit) {
			fmt.Printf("%-14s does not fit: %v\n", b, err)
			continue
		}
		exitOn(err) // no backend serves an invalid deployment
		m, err := eng.Run(batch, p.prompt, p.out)
		if err != nil {
			fmt.Printf("%-14s failed: %v\n", b, err)
			continue
		}
		fmt.Printf("%-14s %12.2f %14.1f %10d %8d %12.2f %12.2f\n",
			b, m.TotalSeconds, m.Throughput, m.Waves, m.MaxConcurrent, m.WeightGiB, m.KVCapacityGiB)
		if b == zipserv.ServeZipServ {
			base = m.Throughput
		} else if compare && base > 0 {
			fmt.Printf("%-14s   (ZipServ speedup: %.2fx)\n", "", base/m.Throughput)
		}
	}
}

// runLive replays one synthetic trace twice — through the live
// continuous-batching scheduler and through the offline static-batch
// path — and prints the goodput comparison.
func runLive(p params) error {
	eng, err := zipserv.NewEngine(p.serving)
	if err != nil {
		return err
	}
	trace := zipserv.SyntheticTrace(p.requests, p.rate, p.prompt, p.out, p.seed)
	offline, _, err := eng.Serve(trace)
	if err != nil {
		return err
	}

	w := &workload{}
	for _, r := range trace {
		w.reqs = append(w.reqs, zipserv.LiveRequest{PromptLen: r.PromptLen, OutputLen: r.OutputLen, Arrival: r.ArrivalSeconds})
	}
	b, err := fleet{replicas: make([]zipserv.LiveConfig, 1)}.backend(w, p)
	if err != nil {
		return err
	}
	_, st, err := replay(b, w)
	if err != nil {
		return err
	}

	liveGoodput := float64(st.Completed) / st.SimSeconds
	offGoodput := float64(offline.Requests) / offline.MakespanSeconds
	fmt.Printf("trace: %d requests, %.0f req/s Poisson, prompt~%d, output~%d (%s, %s)\n\n",
		p.requests, p.rate, p.prompt, p.out, p.deploy, p.serving.Backend)
	fmt.Printf("%-26s %14s %14s %12s %12s\n", "scheduler", "makespan(s)", "goodput(r/s)", "meanTTFT(s)", "peak conc")
	fmt.Printf("%-26s %14.2f %14.2f %12.3f %12d\n",
		"offline static-batch", offline.MakespanSeconds, offGoodput, offline.MeanTTFT, offline.PeakConcurrency)
	fmt.Printf("%-26s %14.2f %14.2f %12.3f %12d\n",
		"live continuous-batching", st.SimSeconds, liveGoodput, st.MeanTTFT, st.PeakConcurrency)
	fmt.Printf("\nlive goodput gain: %.2fx\n", liveGoodput/offGoodput)
	return nil
}

// params are the deployment and workload flag values a mode reads.
type params struct {
	serving               zipserv.ServingConfig // every replica's model, device, TP degree and backend
	deploy                string                // "<model> on <gpus>x <device>" for headings
	requests, prompt, out int
	rate, target          float64 // arrivals per second; -target-step-time in seconds
	seed                  int64
}

// scenario is one -compare-<name> mode: a workload replayed by each of
// its fleets, the columns every fleet reports, and the win predicate
// -require-<name>-win gates on.
type scenario struct {
	name  string   // selects the mode: -compare-<name>
	about string   // what the mode replays and compares (flag usage)
	reads []string // workload flags build reads
	// build returns the workload every fleet replays; it may fit the
	// deployment to the workload, as compress shrinks the KV plan.
	build  func(p *params) (*workload, error)
	fleets []fleet
	key    string // heading of the fleet-label column
	cols   []column
	// win states the gate's requirements on the runs, in fleet order,
	// and returns the verdict line; nil for an informational mode.
	win  func(runs []*run, g *winGate) string
	gate string // -require-<name>-win usage: the win it requires
}

// workload is one scenario's request set; every fleet replays it
// identically.
type workload struct {
	header string // one-line description printed above the table
	reqs   []zipserv.LiveRequest
	// wave, when set, submits reqs in order wave requests at a time,
	// each once the fleet has run the previous one dry: a barrier in
	// virtual time. Zero submits every request at once.
	wave int
	// faults scripts replica failures. A workload with a plan is a
	// drill: failed requests are outcomes to count, not errors, and
	// each fleet replays twice to prove the failure schedule
	// reproduces.
	faults *zipserv.LiveFaultPlan
}

// router selects how a multi-replica fleet dispatches.
type router int

const (
	leastLoaded router = iota // capacity-aware: fewest queued+active, then most free KV
	pooled                    // prefill/decode tiers with compressed KV handoff
	affinity                  // least-loaded plus prefix-affinity steering
	health                    // least-loaded plus breakers, retries and resurrection
)

// fleet is one configuration a scenario's workload replays through.
type fleet struct {
	label    string
	replicas []zipserv.LiveConfig // one per replica; a lone replica serves without a router
	router   router
}

// same returns n copies of one replica configuration.
func same(n int, cfg zipserv.LiveConfig) []zipserv.LiveConfig {
	cfgs := make([]zipserv.LiveConfig, n)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	return cfgs
}

// backend builds the fleet over fresh engines, each replica's queue
// sized for the whole workload.
func (f fleet) backend(w *workload, p params) (zipserv.LiveBackend, error) {
	servers := make([]*zipserv.LiveServer, len(f.replicas))
	backends := make([]zipserv.LiveBackend, len(f.replicas))
	for i, cfg := range f.replicas {
		eng, err := zipserv.NewEngine(p.serving)
		if err != nil {
			return nil, err
		}
		cfg.Engine, cfg.QueueDepth, cfg.Faults = eng, len(w.reqs), w.faults.Replica(i)
		if cfg.AdaptiveChunking {
			cfg.TargetStepTime = p.target // the -target-step-time TPOT SLO
		}
		if servers[i], err = zipserv.NewLiveServer(cfg); err != nil {
			return nil, err
		}
		backends[i] = servers[i]
	}
	if len(servers) == 1 {
		return servers[0], nil
	}
	if f.router == pooled {
		return zipserv.NewPooledLiveRouter(servers...)
	}
	r, err := zipserv.NewLiveRouter(backends...)
	if err != nil {
		return nil, err
	}
	switch f.router {
	case affinity:
		// A generous band: tenant pinning concentrates load a little by
		// design, and spilling on every transient imbalance would throw
		// the cache away.
		err = r.EnableAffinity(zipserv.LiveAffinityConfig{LoadBand: 16})
	case health:
		err = r.EnableHealth(zipserv.LiveHealthConfig{RetryBudget: 3})
	}
	return r, err
}

// replay drives w through b wave by wave in virtual time, which leaves
// b stopped, and snapshots its stats. Every result must describe its
// request; outside a fault drill every request must succeed.
func replay(b zipserv.LiveBackend, w *workload) ([]zipserv.LiveResult, zipserv.LiveStats, error) {
	results, err := zipserv.ReplayLive(b, w.reqs, w.wave)
	if err != nil {
		return nil, zipserv.LiveStats{}, err
	}
	for i, res := range results {
		q := w.reqs[i]
		switch {
		case res.Err != nil && w.faults == nil:
			return nil, zipserv.LiveStats{}, res.Err
		case res.Err == nil && (res.PromptLen != max(q.PromptLen, len(q.Prompt)) || res.OutputLen != q.OutputLen):
			return nil, zipserv.LiveStats{}, fmt.Errorf("completion %d is %d/%d tokens, its request %d/%d",
				i, res.PromptLen, res.OutputLen, max(q.PromptLen, len(q.Prompt)), q.OutputLen)
		}
	}
	return results, b.Stats(), nil
}

// run is one fleet's replay of a scenario's workload.
type run struct {
	label    string
	reqs     []zipserv.LiveRequest
	results  []zipserv.LiveResult
	st       zipserv.LiveStats
	outcomes string // one "index: prompt/output served=bool resurrected=n" line per request
	replayed string // the same log from the fleet's second run; equals outcomes outside a drill
}

func (r *run) replayIdentical() bool { return r.outcomes == r.replayed }

// sample selects the requests a latency percentile covers.
type sample func(i int, q zipserv.LiveRequest) bool

// decoders are the chat decoders of a mix whose long prompts emit at
// most 8 tokens.
func decoders(_ int, q zipserv.LiveRequest) bool { return q.OutputLen > 8 }

func ttftOf(res zipserv.LiveResult) float64 { return res.TTFT }
func tpotOf(res zipserv.LiveResult) float64 { return res.TPOT }

// pct returns the nearest-rank p-quantile of metric over the requests
// keep selects, or over every request when keep is nil.
func (r *run) pct(p float64, metric func(zipserv.LiveResult) float64, keep sample) float64 {
	var xs []float64
	for i, res := range r.results {
		if keep == nil || keep(i, r.reqs[i]) {
			xs = append(xs, metric(res))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[max(int(math.Ceil(p*float64(len(xs))))-1, 0)]
}

// fastest returns the run with the lowest metric, the first on ties.
func fastest(runs []*run, metric func(*run) float64) *run {
	best := runs[0]
	for _, r := range runs[1:] {
		if metric(r) < metric(best) {
			best = r
		}
	}
	return best
}

// column is one metric every fleet of a scenario reports; the cell is
// fmt.Sprintf(format, value(run)) on stdout and in the CSV alike.
type column struct {
	name   string
	format string
	value  func(r *run) any
}

// pctCol is the p-quantile of metric over the requests keep selects.
func pctCol(name string, metric func(zipserv.LiveResult) float64, p float64, keep sample) column {
	return column{name, "%.6f", func(r *run) any { return r.pct(p, metric, keep) }}
}

// decodeP99 is the decoders' TPOT p99, the number the adaptive and
// disagg gates compare.
func decodeP99(r *run) float64 { return r.pct(0.99, tpotOf, decoders) }

var (
	ttftP50Col   = pctCol("ttft_p50_s", ttftOf, 0.50, nil)
	ttftP99Col   = pctCol("ttft_p99_s", ttftOf, 0.99, nil)
	decodeP50Col = pctCol("decode_tpot_p50_s", tpotOf, 0.50, decoders)
	decodeP99Col = pctCol("decode_tpot_p99_s", tpotOf, 0.99, decoders)
	goodputCol   = column{"goodput_rps", "%.3f", func(r *run) any { return r.st.Goodput }}
	maxGapCol    = column{"max_decode_gap_s", "%.6f", func(r *run) any { return r.st.MaxDecodeGap }}
	completedCol = column{"completed", "%d", func(r *run) any { return r.st.Completed }}
	prefillCol   = column{"prefill_tokens", "%d", func(r *run) any { return r.st.PrefillTokens }}
	hitsCol      = column{"prefix_hits", "%d", func(r *run) any { return r.st.PrefixHits }}
	savedCol     = column{"prefix_tokens_saved", "%d", func(r *run) any { return r.st.PrefixTokensSaved }}
)

// compare replays sc's workload through each of its fleets, prints the
// table and the verdict, writes the same cells as CSV to csvPath when
// set, and returns the gate's verdict when armed.
func compare(sc *scenario, p params, csvPath string, armed bool) error {
	w, err := sc.build(&p)
	if err != nil {
		return err
	}
	reps := 1
	if w.faults != nil {
		reps = 2
	}
	var runs []*run
	for _, f := range sc.fleets {
		r := &run{label: f.label, reqs: w.reqs}
		for rep := 0; rep < reps; rep++ {
			b, err := f.backend(w, p)
			if err != nil {
				return err
			}
			results, st, err := replay(b, w)
			if err != nil {
				return fmt.Errorf("%s: %w", f.label, err)
			}
			var log strings.Builder
			for i, res := range results {
				fmt.Fprintf(&log, "%d: %d/%d served=%t resurrected=%d\n",
					i, w.reqs[i].PromptLen, w.reqs[i].OutputLen, res.Err == nil, res.Resurrected)
			}
			if rep == 0 {
				r.results, r.st, r.outcomes = results, st, log.String()
			}
			r.replayed = log.String()
		}
		runs = append(runs, r)
	}

	cells := [][]string{{sc.key}}
	for _, c := range sc.cols {
		cells[0] = append(cells[0], c.name)
	}
	for _, r := range runs {
		row := []string{r.label}
		for _, c := range sc.cols {
			row = append(row, fmt.Sprintf(c.format, c.value(r)))
		}
		cells = append(cells, row)
	}
	fmt.Printf("%s (%s, %s)\n\n", w.header, p.deploy, p.serving.Backend)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	var csvText strings.Builder
	for _, row := range cells {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
		csvText.WriteString(strings.Join(row, ",") + "\n")
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	g := &winGate{armed: armed}
	if sc.win != nil {
		if verdict := sc.win(runs, g); verdict != "" {
			fmt.Printf("\n%s\n", verdict)
		}
	}
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(csvText.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	return g.err
}

// winGate is the CI perf-regression gate every -require-*-win flag
// funnels through. A mode states its requirements in order; armed, the
// first violated one fails the run with a uniform "perf regression"
// error. Disarmed, the comparison is informational.
type winGate struct {
	armed bool
	err   error
}

// require records a violation when the gate is armed and cond is false;
// the first violation wins.
func (g *winGate) require(cond bool, format string, args ...any) {
	if g.armed && g.err == nil && !cond {
		g.err = fmt.Errorf("perf regression: "+format, args...)
	}
}
