// Package benchfmt parses `go test -bench -benchmem` output and
// compares benchmark snapshots — the machinery behind the repo's
// BENCH_<pr>.json perf-regression trajectory: CI re-runs the scheduler
// benchmarks, diffs them against the checked-in snapshot from the
// previous PR, warns on wall-time regressions (cross-machine ns/op is
// noisy, so it never gates) and fails the build when a gated
// benchmark's allocs/op — deterministic enough to gate — regresses.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark's full name including sub-benchmarks
	// (BenchmarkLiveSharedPrefix/cached), with the -GOMAXPROCS suffix
	// stripped so snapshots from different machines compare.
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`  // -1 when -benchmem was off
	AllocsPerOp int64   `json:"allocs_per_op"` // -1 when -benchmem was off
}

// benchLine matches a result line's name and iteration count, and
// captures the value/unit pairs that follow. They come in any order,
// and b.SetBytes and b.ReportMetric add columns between them, e.g.
//
//	BenchmarkVerifyKVBlock-2   200   43325 ns/op   189.08 MB/s   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// Parse extracts benchmark results from `go test -bench` output,
// ignoring the surrounding goos/pkg/PASS chatter, the lines without an
// ns/op value, and units other than ns/op, B/op and allocs/op.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		res := Result{Name: m[1], BytesPerOp: -1, AllocsPerOp: -1}
		timed := false
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			var err error
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp, err = strconv.ParseFloat(f[i], 64)
				timed = true
			case "B/op":
				res.BytesPerOp, err = strconv.ParseInt(f[i], 10, 64)
			case "allocs/op":
				res.AllocsPerOp, err = strconv.ParseInt(f[i], 10, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad %s in %q: %w", f[i+1], sc.Text(), err)
			}
		}
		if timed {
			out = append(out, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmark lines found")
	}
	return out, nil
}

// Delta is one benchmark present in both snapshots.
type Delta struct {
	Name                 string
	OldNs, NewNs         float64
	OldAllocs, NewAllocs int64 // -1 when either side lacks -benchmem
}

// NsChangePct returns the ns/op change in percent (positive = slower).
func (d Delta) NsChangePct() float64 {
	if d.OldNs == 0 {
		return 0
	}
	return (d.NewNs - d.OldNs) / d.OldNs * 100
}

// AllocsChangePct returns the allocs/op change in percent (positive =
// more allocations); 0 when either side lacks allocation data.
func (d Delta) AllocsChangePct() float64 {
	if d.OldAllocs <= 0 || d.NewAllocs < 0 {
		return 0
	}
	return float64(d.NewAllocs-d.OldAllocs) / float64(d.OldAllocs) * 100
}

// Compare matches results by name and returns the deltas in the new
// snapshot's order. Benchmarks present on only one side are skipped —
// a renamed or added benchmark is not a regression.
func Compare(old, new []Result) []Delta {
	byName := make(map[string]Result, len(old))
	for _, r := range old {
		byName[r.Name] = r
	}
	var out []Delta
	for _, n := range new {
		o, ok := byName[n.Name]
		if !ok {
			continue
		}
		out = append(out, Delta{
			Name:  n.Name,
			OldNs: o.NsPerOp, NewNs: n.NsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: n.AllocsPerOp,
		})
	}
	return out
}

// Snapshot is the BENCH_<pr>.json document: the benchmark results plus
// the compare-mode CSV summaries keyed by section name, each row a
// column→value map.
type Snapshot struct {
	Commit     string                         `json:"commit,omitempty"`
	Benchmarks []Result                       `json:"benchmarks"`
	Compares   map[string][]map[string]string `json:"compares,omitempty"`
}

// ParseCompareCSV turns one compare-mode CSV export into snapshot rows.
func ParseCompareCSV(r io.Reader) ([]map[string]string, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("benchfmt: empty CSV")
	}
	cols := strings.Split(strings.TrimSpace(sc.Text()), ",")
	var rows []map[string]string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cells := strings.Split(line, ",")
		if len(cells) != len(cols) {
			return nil, fmt.Errorf("benchfmt: CSV row has %d cells for %d columns", len(cells), len(cols))
		}
		row := make(map[string]string, len(cols))
		for i, c := range cols {
			row[c] = cells[i]
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// DecodeSnapshot reads a snapshot JSON document.
func DecodeSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("benchfmt: %w", err)
	}
	return s, nil
}

// EncodeSnapshot writes a snapshot as indented JSON.
func EncodeSnapshot(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
