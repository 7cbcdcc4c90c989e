package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/figures.txt from this run")

// measuredRows are the E-6.4 rows that time the compressor on this
// machine; the golden masks their values.
var measuredRows = map[string]bool{
	"compressor throughput (1 core)":           true,
	"LLaMA3.1-8B offline compression (1 core)": true,
	"scaled to 16 cores":                       true,
}

// TestFiguresMatchGolden pins the default output — every figure,
// experiment and ablation, and with them every compression ratio the
// reproduction prints — byte for byte. The wall-clock rows of E-6.4 are
// masked before the table is laid out, since its column widths follow
// the longest cell.
func TestFiguresMatchGolden(t *testing.T) {
	tables, err := selectTables("", "", false, false, "L40S")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	masked := 0
	for _, tbl := range tables {
		if strings.HasPrefix(tbl.Title, "E-6.4:") {
			for _, row := range tbl.Rows {
				if measuredRows[row[0]] {
					row[1] = "(measured)"
					masked++
				}
			}
		}
		fmt.Fprintln(&got, tbl)
	}
	if masked != len(measuredRows) {
		t.Fatalf("masked %d measured rows of E-6.4, want %d", masked, len(measuredRows))
	}
	path := filepath.Join("testdata", "golden", "figures.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update after an intended change)", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d (rerun with -update after an intended change)", len(gl), path, len(wl))
	}
}

func TestSelectTablesRejectsUnknownNames(t *testing.T) {
	if _, err := selectTables("99", "", false, false, "L40S"); err == nil {
		t.Error("unknown figure accepted")
	}
	if _, err := selectTables("", "9.9", false, false, "L40S"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
