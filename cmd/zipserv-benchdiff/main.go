// Command zipserv-benchdiff maintains the repo's benchmark trajectory
// (the BENCH_<pr>.json snapshots at the repo root): it parses a fresh
// `go test -bench -benchmem` run, folds in the compare-mode CSV
// exports, writes the new snapshot, and diffs it against the previous
// checked-in one.
//
// ns/op changes only warn — CI runners and developer machines differ
// too much for wall time to gate — but allocs/op is deterministic
// enough to enforce: benchmarks named with -gate-allocs fail the run
// (exit 1) when their allocs/op regress more than -fail-allocs-pct
// over the baseline, which is how the scheduler hot path's
// allocation-lean discipline stays locked in. -require-zero-allocs is
// the stricter absolute gate for paths whose contract is zero
// steady-state allocation (the heap scheduler core): any
// allocs/op > 0 fails, baseline or not, and a name matches itself or
// any of its sub-benchmarks.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem ./... | tee bench.txt
//	zipserv-benchdiff -bench bench.txt -baseline BENCH_5.json -out BENCH_5.json \
//	    -csv adaptive=compare-adaptive.csv -warn-ns-pct 15 \
//	    -gate-allocs BenchmarkStepperDecodeHeavy -fail-allocs-pct 20
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"zipserv/internal/benchfmt"
)

// csvFlags collects repeated -csv section=path arguments.
type csvFlags map[string]string

func (c csvFlags) String() string { return fmt.Sprint(map[string]string(c)) }

func (c csvFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want section=path, got %q", v)
	}
	c[name] = path
	return nil
}

func main() {
	benchPath := flag.String("bench", "", "path to `go test -bench -benchmem` output (required)")
	baselinePath := flag.String("baseline", "", "previous BENCH_<pr>.json snapshot to diff against (optional)")
	outPath := flag.String("out", "", "write the new snapshot JSON here (optional)")
	commit := flag.String("commit", "", "commit id recorded in the snapshot")
	warnNsPct := flag.Float64("warn-ns-pct", 15, "warn when a benchmark's ns/op regresses more than this percentage")
	failAllocsPct := flag.Float64("fail-allocs-pct", 20, "fail when a gated benchmark's allocs/op regresses more than this percentage")
	gateAllocs := flag.String("gate-allocs", "", "comma-separated benchmark names whose allocs/op regressions fail the run")
	zeroAllocs := flag.String("require-zero-allocs", "", "comma-separated benchmark names (sub-benchmarks included) that must report exactly 0 allocs/op")
	flag.Parse()

	if err := run(*benchPath, *baselinePath, *outPath, *commit, *warnNsPct, *failAllocsPct, *gateAllocs, *zeroAllocs); err != nil {
		fmt.Fprintln(os.Stderr, "zipserv-benchdiff:", err)
		os.Exit(1)
	}
}

func run(benchPath, baselinePath, outPath, commit string, warnNsPct, failAllocsPct float64, gateAllocs, zeroAllocs string) error {
	if benchPath == "" {
		return fmt.Errorf("-bench is required")
	}
	bf, err := os.Open(benchPath)
	if err != nil {
		return err
	}
	results, err := benchfmt.Parse(bf)
	bf.Close()
	if err != nil {
		return err
	}

	snap := benchfmt.Snapshot{Commit: commit, Benchmarks: results}
	for name, path := range csvSections() {
		cf, err := os.Open(path)
		if err != nil {
			return err
		}
		rows, err := benchfmt.ParseCompareCSV(cf)
		cf.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if snap.Compares == nil {
			snap.Compares = map[string][]map[string]string{}
		}
		snap.Compares[name] = rows
	}

	var failed bool
	// The absolute zero-allocation gate runs against the fresh results
	// alone — it must hold on the very first run that introduces a
	// benchmark, before any baseline exists to diff against.
	for _, g := range strings.Split(zeroAllocs, ",") {
		if g = strings.TrimSpace(g); g == "" {
			continue
		}
		matched := false
		for _, r := range results {
			if r.Name != g && !strings.HasPrefix(r.Name, g+"/") {
				continue
			}
			matched = true
			switch {
			case r.AllocsPerOp < 0:
				fmt.Printf("::error::%s requires 0 allocs/op but lacks allocs data (run with -benchmem)\n", r.Name)
				failed = true
			case r.AllocsPerOp > 0:
				fmt.Printf("::error::%s reports %d allocs/op, want exactly 0 on this hot path\n", r.Name, r.AllocsPerOp)
				failed = true
			}
		}
		if !matched {
			fmt.Printf("::error::zero-alloc-gated benchmark %s missing from the run\n", g)
			failed = true
		}
	}
	if baselinePath != "" {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			return err
		}
		gated := map[string]bool{}
		for _, g := range strings.Split(gateAllocs, ",") {
			if g = strings.TrimSpace(g); g != "" {
				gated[g] = true
			}
		}
		fmt.Printf("%-44s %14s %14s %10s %10s\n", "benchmark", "ns/op old", "ns/op new", "ns Δ%", "allocs Δ%")
		for _, d := range benchfmt.Compare(base.Benchmarks, results) {
			nsPct, allocPct := d.NsChangePct(), d.AllocsChangePct()
			fmt.Printf("%-44s %14.0f %14.0f %+9.1f%% %+9.1f%%\n", d.Name, d.OldNs, d.NewNs, nsPct, allocPct)
			if nsPct > warnNsPct {
				fmt.Printf("::warning::%s ns/op regressed %.1f%% (%.0f -> %.0f) vs %s\n",
					d.Name, nsPct, d.OldNs, d.NewNs, baselinePath)
			}
			if gated[d.Name] {
				switch {
				case d.OldAllocs < 0 || d.NewAllocs < 0:
					// A gate with no data must fail loudly, or dropping
					// -benchmem from the bench step would silently disarm
					// the allocation gate CI exists to enforce.
					fmt.Printf("::error::%s is allocation-gated but lacks allocs/op data (run with -benchmem)\n", d.Name)
					failed = true
				case d.OldAllocs == 0 && d.NewAllocs > 0:
					fmt.Printf("::error::%s allocs/op regressed from 0 to %d\n", d.Name, d.NewAllocs)
					failed = true
				case allocPct > failAllocsPct:
					fmt.Printf("::error::%s allocs/op regressed %.1f%% (%d -> %d), over the %.0f%% gate\n",
						d.Name, allocPct, d.OldAllocs, d.NewAllocs, failAllocsPct)
					failed = true
				}
			}
		}
		for g := range gated {
			if !has(results, g) {
				fmt.Printf("::error::gated benchmark %s missing from the new run\n", g)
				failed = true
			} else if !has(base.Benchmarks, g) {
				fmt.Printf("::warning::gated benchmark %s has no baseline yet\n", g)
			}
		}
	}

	if outPath != "" {
		of, err := os.Create(outPath)
		if err != nil {
			return err
		}
		err = benchfmt.EncodeSnapshot(of, snap)
		if cerr := of.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks, %d compare sections)\n", outPath, len(snap.Benchmarks), len(snap.Compares))
	}
	if failed {
		return fmt.Errorf("allocation gate failed")
	}
	return nil
}

func loadBaseline(path string) (benchfmt.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchfmt.Snapshot{}, err
	}
	defer f.Close()
	return benchfmt.DecodeSnapshot(f)
}

func has(results []benchfmt.Result, name string) bool {
	for _, r := range results {
		if r.Name == name {
			return true
		}
	}
	return false
}

// csvArgs is populated by the repeated -csv flag.
var csvArgs = csvFlags{}

func csvSections() map[string]string { return csvArgs }

func init() {
	flag.Var(csvArgs, "csv", "compare-mode CSV to fold into the snapshot, as section=path (repeatable)")
}
