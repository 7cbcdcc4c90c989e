// Command zipserv-figures regenerates every table and figure of the
// ZipServ paper's evaluation from the reproduction's models and
// measurements.
//
// Usage:
//
//	zipserv-figures                # everything
//	zipserv-figures -fig 11        # one figure (1,2,5,11,11c,12,13,14,15,16,17,18)
//	zipserv-figures -exp 3.1       # an in-text experiment (3.1,4.2,6.4,6.5,7)
//	zipserv-figures -ablations     # the five design ablations only
//	zipserv-figures -quick         # reduced end-to-end grid for Figure 16
package main

import (
	"flag"
	"fmt"
	"os"

	"zipserv/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "regenerate one figure: 1, 2, 5, 11, 11c, 12, 13, 14, 15, 16, 17, 18")
	exp := flag.String("exp", "", "regenerate one in-text experiment: 3.1, 3.2, 4.2, 6.4, 6.5, 7, 7b")
	ablations := flag.Bool("ablations", false, "regenerate only the design ablations A1-A5")
	quick := flag.Bool("quick", false, "use a reduced grid for the end-to-end Figure 16")
	device := flag.String("device", "L40S", "GPU for the Figure 11 sweep (RTX4090, L40S, RTX5090, A100, H800)")
	flag.Parse()

	tables, err := selectTables(*fig, *exp, *ablations, *quick, *device)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zipserv-figures: %v\n", err)
		os.Exit(2)
	}
	for _, t := range tables {
		fmt.Println(t)
	}
}

// selectTables computes the tables the flags select, in print order:
// one figure, one experiment, the ablations, or by default everything.
func selectTables(fig, exp string, ablations, quick bool, device string) ([]*bench.Table, error) {
	figures := map[string]func() *bench.Table{
		"1":   bench.Fig01,
		"2":   bench.Fig02,
		"5":   bench.Fig05,
		"11":  func() *bench.Table { return bench.Fig11(device) },
		"11c": bench.Fig11c,
		"12":  bench.Fig12,
		"13":  bench.Fig13,
		"14":  bench.Fig14,
		"15":  bench.Fig15,
		"16":  func() *bench.Table { return bench.Fig16(quick) },
		"17":  bench.Fig17,
		"18":  bench.Fig18,
	}
	experiments := map[string]func() *bench.Table{
		"3.1": bench.E31,
		"3.2": bench.E32Divergence,
		"4.2": bench.E42,
		"6.4": bench.E64,
		"6.5": bench.E65,
		"7":   bench.E7,
		"7b":  bench.E7b,
	}

	switch {
	case fig != "":
		f, ok := figures[fig]
		if !ok {
			return nil, fmt.Errorf("unknown figure %q", fig)
		}
		return []*bench.Table{f()}, nil
	case exp != "":
		f, ok := experiments[exp]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", exp)
		}
		return []*bench.Table{f()}, nil
	case ablations:
		return bench.Ablations(), nil
	}
	var out []*bench.Table
	for _, k := range []string{"1", "2", "5", "11", "11c", "12", "13", "14", "15", "16", "17", "18"} {
		out = append(out, figures[k]())
	}
	for _, k := range []string{"3.1", "3.2", "4.2", "6.4", "6.5", "7", "7b"} {
		out = append(out, experiments[k]())
	}
	return append(out, bench.Ablations()...), nil
}
