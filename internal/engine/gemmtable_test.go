package engine

import (
	"fmt"
	"math"
	"testing"
)

// tableSweepTokens bounds the prefill sweep: every packed width up to
// it, so every GEMM tile boundary (64k, 64k+1, 128k, 128k+1) below it is
// priced.
const tableSweepTokens = 4096

// tableSweepFinals are the completing-chunk counts each prefill width is
// priced with: none (no LM head) and several.
var tableSweepFinals = []int{0, 1, 3, 8}

// sweepChunks packs n tokens into chunks of which finals complete their
// prompt (n >= finals). Starts differ, so the attention term varies too.
func sweepChunks(n, finals int) []PrefillChunk {
	if finals == 0 {
		return []PrefillChunk{{Start: 64, Tokens: n}}
	}
	chunks := make([]PrefillChunk, finals)
	for i := range chunks {
		chunks[i] = PrefillChunk{Start: 16 * i, Tokens: 1, Final: true}
	}
	chunks[0].Tokens = n - (finals - 1)
	return chunks
}

// TestGEMMTableMatchesDirectPrices is the oracle for the Stepper's GEMM
// table: for the default model on a PCIe card and an NVLink card, every
// backend at TP 1, 2 and 4, a decode step at every batch size up to the
// plan's blocks and a prefill iteration at every packed width up to
// tableSweepTokens must price bit for bit as the direct Engine method
// does. Each sweep runs twice over one fresh table, so the pass that
// fills the table and the pass that reads it are both compared.
func TestGEMMTableMatchesDirectPrices(t *testing.T) {
	for _, device := range []string{"RTX4090", "A100"} {
		for _, tp := range []int{1, 2, 4} {
			for _, backend := range Backends() {
				e := newEngine(t, "LLaMA3.1-8B", device, tp, backend)
				t.Run(fmt.Sprintf("%s/tp%d/%s", device, tp, backend), func(t *testing.T) {
					t.Parallel()
					checkDecodeTable(t, e)
					checkPrefillTable(t, e)
				})
			}
		}
	}
}

func checkDecodeTable(t *testing.T, e *Engine) {
	want := make([]float64, e.Plan().Blocks+1)
	for b := 1; b < len(want); b++ {
		want[b] = e.BatchDecodeStepTime(b, 300*b)
	}
	tab := new(gemmTable)
	for _, pass := range []string{"fill", "hit"} {
		for b := 1; b < len(want); b++ {
			if got := e.batchDecodeStepTime(tab, b, 300*b); math.Float64bits(got) != math.Float64bits(want[b]) {
				t.Fatalf("%s pass: decode step at batch %d prices %v from the table, %v directly", pass, b, got, want[b])
			}
		}
	}
}

func checkPrefillTable(t *testing.T, e *Engine) {
	want := make([][]float64, len(tableSweepFinals))
	for i, finals := range tableSweepFinals {
		want[i] = make([]float64, tableSweepTokens+1)
		for n := max(finals, 1); n <= tableSweepTokens; n++ {
			want[i][n] = e.ChunkedPrefillTime(sweepChunks(n, finals))
		}
	}
	tab := new(gemmTable)
	for _, pass := range []string{"fill", "hit"} {
		for i, finals := range tableSweepFinals {
			for n := max(finals, 1); n <= tableSweepTokens; n++ {
				got := e.chunkedPrefillTime(tab, sweepChunks(n, finals))
				if math.Float64bits(got) != math.Float64bits(want[i][n]) {
					t.Fatalf("%s pass: prefill of %d tokens with %d final chunks prices %v from the table, %v directly",
						pass, n, finals, got, want[i][n])
				}
			}
		}
	}
}
