package bench

import (
	"strconv"
	"strings"
	"testing"
)

func checkTable(t *testing.T, tbl *Table) {
	t.Helper()
	if tbl.Title == "" {
		t.Error("table has no title")
	}
	if len(tbl.Headers) == 0 || len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table (%d headers, %d rows)", tbl.Title, len(tbl.Headers), len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Headers) {
			t.Errorf("%s: row %d has %d cells, want %d", tbl.Title, i, len(row), len(tbl.Headers))
		}
	}
	out := tbl.String()
	if !strings.Contains(out, tbl.Title) || !strings.Contains(out, tbl.Headers[0]) {
		t.Errorf("%s: rendering lost content", tbl.Title)
	}
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func TestFig01(t *testing.T) {
	tbl := Fig01()
	checkTable(t, tbl)
	// Every decoupled pipeline's decompression must exceed the GEMM
	// time (Figure 1's 1.56–3.44× band, with model tolerance).
	for _, row := range tbl.Rows {
		ratio := cellFloat(t, row[4])
		if ratio < 1.2 || ratio > 4.0 {
			t.Errorf("%s/%s: decomp/gemm %.2f outside [1.2, 4.0]", row[0], row[1], ratio)
		}
	}
}

func TestFig02(t *testing.T) {
	tbl := Fig02()
	checkTable(t, tbl)
	for _, row := range tbl.Rows {
		if row[5] != "true" {
			t.Errorf("%s: top-7 not contiguous", row[0])
		}
	}
}

func TestFig05(t *testing.T) {
	checkTable(t, Fig05())
}

func TestFig11AveragesMatchPaper(t *testing.T) {
	// Figure 11: ZipGEMM averages 1.31×/1.36× on RTX4090/L40S;
	// baselines average 0.17–0.34×.
	for dev, wantZip := range map[string]float64{"RTX4090": 1.31, "L40S": 1.36} {
		tbl := Fig11(dev)
		avgs := map[string]float64{}
		for _, row := range tbl.Rows {
			avgs["zipserv-tbe"] += cellFloat(t, row[3])
			for i, base := range baselineCodecs {
				avgs[base] += cellFloat(t, row[4+i])
			}
		}
		for k := range avgs {
			avgs[k] /= float64(len(tbl.Rows))
		}
		t.Logf("%s averages: %v", dev, avgs)
		if z := avgs["zipserv-tbe"]; z < wantZip*0.8 || z > wantZip*1.35 {
			t.Errorf("%s: ZipGEMM average %.2f, paper %.2f", dev, z, wantZip)
		}
		for _, base := range baselineCodecs {
			if b := avgs[base]; b < 0.10 || b > 0.50 {
				t.Errorf("%s: %s average %.2f outside the paper's slowdown band", dev, base, b)
			}
		}
	}
}

func TestFig11TableShape(t *testing.T) {
	tbl := Fig11("L40S")
	checkTable(t, tbl)
	// 11 models × 4 layers × 3 batches.
	if want := 11 * 4 * 3; len(tbl.Rows) != want {
		t.Errorf("Fig11 has %d rows, want %d", len(tbl.Rows), want)
	}
}

func TestFig11c(t *testing.T) {
	tbl := Fig11c()
	checkTable(t, tbl)
	for _, row := range tbl.Rows {
		sp := cellFloat(t, row[3])
		switch row[1] {
		case "O_proj":
			if row[0] == "LLaMA3.1-8B" && sp >= 1.0 {
				t.Errorf("8B O_proj speedup %.2f, paper shows a slowdown", sp)
			}
		case "BLOCK":
			if sp < 1.15 {
				t.Errorf("%s block-level speedup %.2f < 1.15 (paper 1.35–1.48)", row[0], sp)
			}
		}
	}
}

func TestFig12(t *testing.T) {
	checkTable(t, Fig12())
}

func TestFig13(t *testing.T) {
	tbl := Fig13()
	checkTable(t, tbl)
	for _, row := range tbl.Rows {
		if row[1] == "zipserv-tbe" {
			continue
		}
		sp := cellFloat(t, row[3])
		if sp < 1.0 {
			t.Errorf("%s/%s: ZipServ-Decomp speedup %.2f < 1 — must be best in class", row[0], row[1], sp)
		}
	}
}

func TestFig14(t *testing.T) {
	checkTable(t, Fig14())
}

func TestFig15(t *testing.T) {
	tbl := Fig15()
	checkTable(t, tbl)
	for _, row := range tbl.Rows {
		n := int(cellFloat(t, row[0]))
		mode := row[4]
		speedup := cellFloat(t, row[5])
		if n <= 128 {
			if mode != "fused" {
				t.Errorf("N=%d: mode %s, want fused", n, mode)
			}
			// Paper: fused incurs no overhead and beats cuBLAS in
			// the decode regime.
			if speedup < 1.0 {
				t.Errorf("N=%d: decode-regime speedup %.2f < 1", n, speedup)
			}
		}
		if n >= 8192 {
			if mode != "decoupled" {
				t.Errorf("N=%d: mode %s, want decoupled", n, mode)
			}
			// Paper: prefill overhead capped at ~4%/2%.
			if speedup < 0.93 {
				t.Errorf("N=%d: prefill overhead %.1f%% too high", n, (1/speedup-1)*100)
			}
		}
	}
}

func TestFig16Quick(t *testing.T) {
	tbl := Fig16(true)
	checkTable(t, tbl)
	// 3 scenarios × 4 backends × 1 batch × 1 output.
	if len(tbl.Rows) != 12 {
		t.Errorf("quick Fig16 has %d rows, want 12", len(tbl.Rows))
	}
}

func TestFig17(t *testing.T) {
	tbl := Fig17()
	checkTable(t, tbl)
	if len(tbl.Rows) != 2 {
		t.Fatalf("Fig17 has %d rows, want 2", len(tbl.Rows))
	}
	vllmGEMM := cellFloat(t, tbl.Rows[0][1])
	zipGEMM := cellFloat(t, tbl.Rows[1][1])
	if sp := vllmGEMM / zipGEMM; sp < 1.3 || sp > 2.0 {
		t.Errorf("GEMM component speedup %.2f, paper 1.69", sp)
	}
}

func TestFig18(t *testing.T) {
	tbl := Fig18()
	checkTable(t, tbl)
	for _, row := range tbl.Rows {
		if sp := cellFloat(t, row[6]); sp < 1.3 {
			t.Errorf("%s: standalone decomp speedup %.2f < 1.3 on training GPUs", row[0], sp)
		}
	}
}

func TestE31(t *testing.T) {
	tbl := E31()
	checkTable(t, tbl)
	if len(tbl.Rows) != 11 {
		t.Errorf("E31 covers %d models, want 11", len(tbl.Rows))
	}
}

func TestE42OrdersCodewordLengths(t *testing.T) {
	tbl := E42()
	checkTable(t, tbl)
	bits := map[string]float64{}
	for _, row := range tbl.Rows {
		bits[row[0]] = cellFloat(t, row[3])
	}
	if !(bits["3"] < bits["4"] && bits["4"] < bits["2"]) {
		t.Errorf("codeword ordering violated: %v (want 3 < 4 < 2)", bits)
	}
}

func TestE64(t *testing.T) {
	checkTable(t, E64())
}

func TestE65(t *testing.T) {
	tbl := E65()
	checkTable(t, tbl)
	for _, row := range tbl.Rows {
		frac := cellFloat(t, row[3])
		if frac < 68 || frac > 74 {
			t.Errorf("%s: footprint %.1f%%, paper 71–72%%", row[0], frac)
		}
	}
}

func TestE7(t *testing.T) {
	checkTable(t, E7())
}

func TestAblations(t *testing.T) {
	tables := Ablations()
	if len(tables) != 6 {
		t.Fatalf("%d ablations, want 6", len(tables))
	}
	for _, tbl := range tables {
		checkTable(t, tbl)
	}
	// A1: packed bitstream must be slower.
	a1 := tables[0]
	if slow := cellFloat(t, a1.Rows[1][4]); slow <= 1.0 {
		t.Errorf("packed bitstream slowdown %.2f, want > 1", slow)
	}
	// A4: pipeline overlap must show a real gain everywhere.
	a4 := tables[3]
	for _, row := range a4.Rows {
		if g := cellFloat(t, row[3]); g <= 1.0 {
			t.Errorf("%s: pipeline gain %.2f, want > 1", row[0], g)
		}
	}
	// A5: window must match top-frequency coverage on Gaussian data
	// and lose on bimodal data.
	a5 := tables[4]
	var gw, gt, bw, bt float64
	for _, row := range a5.Rows {
		cov := cellFloat(t, row[2])
		switch {
		case strings.HasPrefix(row[0], "gaussian") && row[1] == "window":
			gw = cov
		case strings.HasPrefix(row[0], "gaussian") && row[1] == "top-frequency":
			gt = cov
		case strings.HasPrefix(row[0], "bimodal") && row[1] == "window":
			bw = cov
		case strings.HasPrefix(row[0], "bimodal") && row[1] == "top-frequency":
			bt = cov
		}
	}
	if gt-gw > 0.02 {
		t.Errorf("window coverage %.4f should match top-frequency %.4f on Gaussian weights", gw, gt)
	}
	if bt-bw < 0.2 {
		t.Errorf("bimodal: top-frequency %.4f should beat window %.4f decisively", bt, bw)
	}
	// A6: tuning must lift O_proj to ≥ parity without hurting others.
	a6 := tables[5]
	for _, row := range a6.Rows {
		def := cellFloat(t, row[1])
		tuned := cellFloat(t, row[2])
		if tuned < def-1e-9 {
			t.Errorf("%s: tuning regressed %.3f → %.3f", row[0], def, tuned)
		}
		if row[0] == "O_proj" && tuned < 0.95 {
			t.Errorf("O_proj tuned speedup %.3f still below parity", tuned)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tbl.AddRow("x", 1.23456)
	tbl.AddRow(7, "y")
	tbl.Notes = append(tbl.Notes, "n1")
	out := tbl.String()
	for _, want := range []string{"T\n=", "a", "bb", "1.235", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestE32Divergence(t *testing.T) {
	tbl := E32Divergence()
	checkTable(t, tbl)
	for _, row := range tbl.Rows {
		div := cellFloat(t, row[2])
		switch row[1] {
		case "TCA-TBE":
			if div != 1.0 {
				t.Errorf("%s: TBE divergence %.3f, want exactly 1.0", row[0], div)
			}
		case "Huffman":
			if div < 1.1 {
				t.Errorf("%s: Huffman divergence %.3f, want > 1.1", row[0], div)
			}
		}
	}
}

func TestE7b(t *testing.T) {
	tbl := E7b()
	checkTable(t, tbl)
	if len(tbl.Rows) != 4 {
		t.Fatalf("E7b has %d rows, want 4", len(tbl.Rows))
	}
	bits := make([]float64, 4)
	for i, row := range tbl.Rows {
		bits[i] = cellFloat(t, row[1])
	}
	// BF16 > TBE > W8 > W8+rANS in storage.
	for i := 1; i < 4; i++ {
		if bits[i] >= bits[i-1] {
			t.Errorf("row %d: %.2f bits not below previous %.2f", i, bits[i], bits[i-1])
		}
	}
	// Lossless rows have zero error; the two lossy rows share one error.
	if cellFloat(t, tbl.Rows[0][2]) != 0 || cellFloat(t, tbl.Rows[1][2]) != 0 {
		t.Error("lossless rows must have zero error")
	}
	if tbl.Rows[2][2] != tbl.Rows[3][2] {
		t.Error("lossless stage changed the lossy error")
	}
}
