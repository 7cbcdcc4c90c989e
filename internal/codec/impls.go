package codec

import (
	"fmt"

	"zipserv/internal/bf16"
	"zipserv/internal/core"
	"zipserv/internal/huffman"
	"zipserv/internal/rans"
)

// ZipServ adapts the TCA-TBE codec (internal/core) to the Codec
// interface.
type ZipServ struct {
	// Opts overrides the default TCA-TBE options when non-zero.
	Opts core.Options
}

// Name implements Codec.
func (ZipServ) Name() string { return NameZipServ }

// Compress implements Codec.
func (z ZipServ) Compress(m *bf16.Matrix) (Blob, error) {
	opts := z.Opts
	if opts.CodewordBits == 0 {
		opts = core.DefaultOptions()
	}
	cm, err := core.CompressWithOptions(m, opts)
	if err != nil {
		return nil, err
	}
	return &tbeBlob{cm: cm, origBytes: m.SizeBytes()}, nil
}

type tbeBlob struct {
	cm        *core.Compressed
	origBytes int
}

func (b *tbeBlob) Codec() string                     { return NameZipServ }
func (b *tbeBlob) Decompress() (*bf16.Matrix, error) { return core.Decompress(b.cm) }
func (b *tbeBlob) SizeBytes() int                    { return b.cm.SizeBytes() }
func (b *tbeBlob) OriginalBytes() int                { return b.origBytes }

// DFloat11 is the Huffman-over-exponents baseline: the 8-bit exponent
// stream is entropy coded, the sign/mantissa byte is stored raw —
// "Dynamic-Length Float" with 11-ish effective bits per weight.
type DFloat11 struct{}

// Name implements Codec.
func (DFloat11) Name() string { return NameDFloat11 }

// Compress implements Codec.
func (DFloat11) Compress(m *bf16.Matrix) (Blob, error) {
	exps, signMant := splitStreams(m)
	stream, err := huffman.Encode(exps, huffman.DefaultChunkSymbols)
	if err != nil {
		return nil, fmt.Errorf("dfloat11: %w", err)
	}
	return &huffBlob{rows: m.Rows, cols: m.Cols, stream: stream, signMant: signMant}, nil
}

type huffBlob struct {
	rows, cols int
	stream     *huffman.Stream
	signMant   []byte
}

func (b *huffBlob) Codec() string      { return NameDFloat11 }
func (b *huffBlob) OriginalBytes() int { return 2 * b.rows * b.cols }
func (b *huffBlob) SizeBytes() int     { return b.stream.SizeBytes() + len(b.signMant) }

func (b *huffBlob) Decompress() (*bf16.Matrix, error) {
	exps, err := b.stream.Decode()
	if err != nil {
		return nil, fmt.Errorf("dfloat11: %w", err)
	}
	return joinStreams(b.rows, b.cols, exps, b.signMant)
}

// DietGPU is the GPU-native rANS baseline with fine-grained chunking
// (many small per-thread states).
type DietGPU struct{}

// Name implements Codec.
func (DietGPU) Name() string { return NameDietGPU }

// Compress implements Codec.
func (DietGPU) Compress(m *bf16.Matrix) (Blob, error) {
	exps, signMant := splitStreams(m)
	stream, err := rans.Encode(exps, rans.DefaultChunkSymbols)
	if err != nil {
		return nil, fmt.Errorf("dietgpu: %w", err)
	}
	return &ransBlob{
		name: NameDietGPU, rows: m.Rows, cols: m.Cols,
		stream: stream, signMant: signMant,
	}, nil
}

// NvComp is the general-purpose rANS baseline: coarser chunks, plus
// the framing overhead of a generic (non-BF16-aware) library container
// around each compressed buffer.
type NvComp struct{}

// nvCompFrameOverhead models nvCOMP's per-buffer manifest: format id,
// uncompressed size, chunk table and alignment padding.
const nvCompFrameOverhead = 256

// Name implements Codec.
func (NvComp) Name() string { return NameNvComp }

// Compress implements Codec.
func (NvComp) Compress(m *bf16.Matrix) (Blob, error) {
	exps, signMant := splitStreams(m)
	stream, err := rans.Encode(exps, 65536)
	if err != nil {
		return nil, fmt.Errorf("nvcomp: %w", err)
	}
	return &ransBlob{
		name: NameNvComp, rows: m.Rows, cols: m.Cols,
		stream: stream, signMant: signMant, extraBytes: nvCompFrameOverhead,
	}, nil
}

type ransBlob struct {
	name       string
	rows, cols int
	stream     *rans.Stream
	signMant   []byte
	extraBytes int
}

func (b *ransBlob) Codec() string      { return b.name }
func (b *ransBlob) OriginalBytes() int { return 2 * b.rows * b.cols }
func (b *ransBlob) SizeBytes() int {
	return b.stream.SizeBytes() + len(b.signMant) + b.extraBytes
}

func (b *ransBlob) Decompress() (*bf16.Matrix, error) {
	exps, err := b.stream.Decode()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.name, err)
	}
	return joinStreams(b.rows, b.cols, exps, b.signMant)
}
