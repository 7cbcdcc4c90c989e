// Package zipgemm implements the GEMM kernels of the ZipServ paper as
// bit-exact functional models:
//
//   - Reference: dense BF16 GEMM with FP32 accumulation, the
//     cuBLAS_TC stand-in and the correctness oracle;
//   - Fused: ZipGEMM (§4.3) — the "load-compressed,
//     compute-decompressed" kernel that decodes TCA-TBE FragTiles
//     just-in-time and feeds them to the multiply-accumulate loop
//     without ever materialising the weight matrix;
//   - Decoupled: the baseline pipeline (§3.3, Figure 4) that first
//     decompresses the whole matrix into a "global memory" buffer and
//     then runs the dense GEMM over it.
//
// All three produce identical FP32 results bit-for-bit because they
// share one accumulation order (k ascending): on hardware the fused
// kernel feeds the same mma.sync units as cuBLAS, and bit-exactness is
// the paper's headline guarantee. Products of BF16 operands are exact
// in FP32 (8×8-bit mantissas), so the only rounding is in the
// accumulation adds, which all kernels perform in the same sequence.
package zipgemm

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"zipserv/internal/bf16"
	"zipserv/internal/codec"
	"zipserv/internal/core"
	"zipserv/internal/tile"
)

// Result is an M×N FP32 output matrix (row-major), the accumulator
// precision of BF16 Tensor Core GEMM.
type Result struct {
	M, N int
	Data []float32
}

// At returns the output element at row m, column n.
func (r *Result) At(m, n int) float32 { return r.Data[m*r.N+n] }

// Equal reports bit-exact equality with other (NaN-insensitive
// comparison is deliberately NOT used: bit patterns must match).
func (r *Result) Equal(other *Result) bool {
	if r.M != other.M || r.N != other.N {
		return false
	}
	for i, v := range r.Data {
		if v != other.Data[i] {
			// Allow both to be the same NaN bit pattern; Go float
			// comparison treats NaN != NaN, so compare bits.
			if !(isNaN32(v) && isNaN32(other.Data[i])) {
				return false
			}
		}
	}
	return true
}

func isNaN32(f float32) bool { return f != f }

// Reference computes Y = W·X with W ∈ BF16^{M×K}, X ∈ BF16^{K×N} and
// FP32 accumulation in ascending-k order. This is the correctness
// oracle all other kernels are compared against.
func Reference(w, x *bf16.Matrix) (*Result, error) {
	if err := checkShapes(w, x); err != nil {
		return nil, err
	}
	m, k, n := w.Rows, w.Cols, x.Cols
	out := &Result{M: m, N: n, Data: make([]float32, m*n)}
	xf := x.ToFloat32()
	parallelRows(m, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			row := out.Data[r*n : (r+1)*n]
			for kk := 0; kk < k; kk++ {
				wv := w.At(r, kk).Float32()
				if wv == 0 {
					// Skipping exact zeros does not change results:
					// x*0 contributes +0, and FP32 addition of +0 is
					// an identity except for NaN/Inf inputs, which we
					// keep by not skipping when x is non-finite.
					xrow := xf[kk*n : (kk+1)*n]
					if allFinite(xrow) {
						continue
					}
				}
				xrow := xf[kk*n : (kk+1)*n]
				for c := 0; c < n; c++ {
					row[c] += wv * xrow[c]
				}
			}
		}
	})
	return out, nil
}

// Fused computes Y = W·X directly from the TCA-TBE representation of
// W, mirroring the ZipGEMM kernel workflow (§4.3.1): for each
// BlockTile the compressed weights are staged ("shared memory"),
// decoded FragTile by FragTile into a register image, and immediately
// consumed by the multiply-accumulate loop — no decompressed weight
// matrix ever exists.
func Fused(cw *core.Compressed, x *bf16.Matrix) (*Result, error) {
	g := cw.Grid
	if x.Rows != g.Cols {
		return nil, fmt.Errorf("zipgemm: weight K=%d does not match activation rows %d", g.Cols, x.Rows)
	}
	m, k, n := g.Rows, g.Cols, x.Cols
	if n == 0 {
		return nil, fmt.Errorf("zipgemm: activation matrix has zero columns")
	}
	out := &Result{M: m, N: n, Data: make([]float32, m*n)}
	xf := x.ToFloat32()

	parallelRows(g.BlockRows, func(b0, b1 int) {
		var fv core.FragView
		// blockW is the decoded 64×64 register image of one BlockTile,
		// indexed [localRow][localK].
		var blockW [tile.BlockDim][tile.BlockDim]float32
		for br := b0; br < b1; br++ {
			rowBase := br * tile.BlockDim
			for bc := 0; bc < g.BlockCols; bc++ {
				colBase := bc * tile.BlockDim
				block := br*g.BlockCols + bc
				// Stage ❷ of the kernel: warp-level decoding of every
				// FragTile in the block, tracking value-buffer offsets
				// incrementally exactly as the GPU's warp-local prefix
				// sums do.
				startH, startL := cw.HighOff[block], cw.FullOff[block]
				for f := 0; f < tile.FragsPerBlock; f++ {
					frag := block*tile.FragsPerBlock + f
					cw.DecodeFragAt(frag, startH, startL, &fv, nil)
					hi := 0
					ind := cw.Indicator(frag)
					for p := 0; p < tile.FragElems; p++ {
						lr, lc := fragLocal(f, p)
						blockW[lr][lc] = fv[p].Float32()
					}
					hi = bits.OnesCount64(ind)
					startH += int64(hi)
					startL += int64(tile.FragElems - hi)
				}
				// Stage ❹: multiply-accumulate, ascending local k so
				// the global accumulation order matches Reference.
				kMax := k - colBase
				if kMax > tile.BlockDim {
					kMax = tile.BlockDim
				}
				rMax := m - rowBase
				if rMax > tile.BlockDim {
					rMax = tile.BlockDim
				}
				for lr := 0; lr < rMax; lr++ {
					row := out.Data[(rowBase+lr)*n : (rowBase+lr+1)*n]
					for lk := 0; lk < kMax; lk++ {
						wv := blockW[lr][lk]
						if wv == 0 {
							xrow := xf[(colBase+lk)*n : (colBase+lk+1)*n]
							if allFinite(xrow) {
								continue
							}
						}
						xrow := xf[(colBase+lk)*n : (colBase+lk+1)*n]
						for c := 0; c < n; c++ {
							row[c] += wv * xrow[c]
						}
					}
				}
			}
		}
	})
	return out, nil
}

// Decoupled runs the baseline pipeline of Figure 4: fully decompress
// the blob into a staging matrix ("global memory"), then run the dense
// GEMM over it. Results are bit-identical to Fused and Reference; only
// the memory traffic differs — which is the entire point of §3.3.
func Decoupled(blob codec.Blob, x *bf16.Matrix) (*Result, error) {
	w, err := blob.Decompress()
	if err != nil {
		return nil, fmt.Errorf("zipgemm: decoupled staging: %w", err)
	}
	return Reference(w, x)
}

// fragLocal maps (frag index within block, position) to local (row,
// col) coordinates inside the 64×64 BlockTile.
func fragLocal(frag, pos int) (lr, lc int) {
	tcIndex, fragInTC := frag/tile.FragsPerTC, frag%tile.FragsPerTC
	tcRow, tcCol := tcIndex/tile.TCsPerBlockSide, tcIndex%tile.TCsPerBlockSide
	fc, fr := fragInTC/tile.FragsPerTCSide, fragInTC%tile.FragsPerTCSide
	return tcRow*tile.TCDim + fr*tile.FragDim + pos/tile.FragDim,
		tcCol*tile.TCDim + fc*tile.FragDim + pos%tile.FragDim
}

func checkShapes(w, x *bf16.Matrix) error {
	if w.Rows <= 0 || w.Cols <= 0 {
		return fmt.Errorf("zipgemm: empty weight matrix %d×%d", w.Rows, w.Cols)
	}
	if x.Rows != w.Cols {
		return fmt.Errorf("zipgemm: weight K=%d does not match activation rows %d", w.Cols, x.Rows)
	}
	if x.Cols <= 0 {
		return fmt.Errorf("zipgemm: activation matrix has zero columns")
	}
	return nil
}

func allFinite(xs []float32) bool {
	for _, v := range xs {
		d := float64(v)
		if d != d || d > 3.4e38 || d < -3.4e38 {
			return false
		}
	}
	return true
}

// parallelRows splits [0, n) into contiguous chunks across GOMAXPROCS
// workers; each worker owns disjoint output rows, so the computation
// is deterministic.
func parallelRows(n int, work func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		work(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			work(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
