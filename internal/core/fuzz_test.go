package core

import (
	"bytes"
	"testing"

	"zipserv/internal/bf16"
)

// FuzzReadFrom throws arbitrary bytes at the TCA-TBE deserialiser: it
// must either reject the input with an error or produce a structurally
// valid Compressed that decompresses without panicking. Run with
// `go test -fuzz=FuzzReadFrom ./internal/core` for open-ended fuzzing;
// plain `go test` executes the seed corpus.
func FuzzReadFrom(f *testing.F) {
	// Seeds: a valid stream, a truncation, a header-corrupted variant.
	m := bf16.NewMatrix(64, 64)
	for i := range m.Data {
		m.Data[i] = bf16.FromFloat32(float32(i%31) * 0.01)
	}
	cm, err := Compress(m)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cm.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	corrupted := append([]byte(nil), valid...)
	corrupted[5] ^= 0xFF
	f.Add(corrupted)
	f.Add([]byte{})
	f.Add([]byte("ZTBE"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Compressed
		if _, err := c.ReadFrom(bytes.NewReader(data)); err != nil {
			return // rejected: fine
		}
		// Accepted input must be fully usable.
		if err := c.Validate(); err != nil {
			t.Fatalf("ReadFrom accepted a stream that fails Validate: %v", err)
		}
		if _, err := Decompress(&c); err != nil {
			t.Fatalf("ReadFrom accepted a stream that fails Decompress: %v", err)
		}
	})
}

// FuzzCompressDecompress feeds arbitrary bit patterns through the full
// codec: the round trip must always be bit-exact, SizeOf must equal the
// encoded size under every option set, and under the option set optSel
// picks the table-driven codec must match the per-element reference
// (reference_test.go) byte for byte.
func FuzzCompressDecompress(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2}, uint8(5), uint8(7), uint8(0))
	f.Add([]byte{0xFF, 0x7F, 0x80, 0x00}, uint8(64), uint8(64), uint8(1))
	// Degenerate corners: empty raw (an all-zero matrix), a single
	// 1×1 element, and a large all-identical-symbol matrix.
	f.Add([]byte{}, uint8(0), uint8(0), uint8(2))
	f.Add([]byte{0x9a, 0x3d}, uint8(0), uint8(0), uint8(3))
	f.Add(bytes.Repeat([]byte{0x9a, 0x3d}, 96*96), uint8(95), uint8(95), uint8(1))
	// Narrow-band seeds, the KV generator's value band: random bits
	// almost never fill a row with in-window codes, these mostly do, so
	// mutations explore the all-in-window row path and its edges.
	for i, sh := range [][2]int{{64, 64}, {16, 96}, {41, 73}, {96, 95}} {
		nb := narrowBandMatrix(sh[0], sh[1], int64(i+1))
		raw := make([]byte, 0, 2*len(nb.Data))
		for _, v := range nb.Data {
			raw = append(raw, byte(v.Bits()), byte(v.Bits()>>8))
		}
		f.Add(raw, uint8(sh[0]-1), uint8(sh[1]-1), uint8(i))
	}
	f.Fuzz(func(t *testing.T, raw []byte, rowsSel, colsSel, optSel uint8) {
		rows := int(rowsSel%96) + 1
		cols := int(colsSel%96) + 1
		m := bf16.NewMatrix(rows, cols)
		for i := range m.Data {
			var v uint16
			if 2*i+1 < len(raw) {
				v = uint16(raw[2*i]) | uint16(raw[2*i+1])<<8
			}
			m.Data[i] = bf16.FromBits(v)
		}
		cm, err := Compress(m)
		if err != nil {
			t.Fatalf("Compress failed on valid matrix: %v", err)
		}
		got, err := Decompress(cm)
		if err != nil {
			t.Fatalf("Decompress failed: %v", err)
		}
		if !m.Equal(got) {
			t.Fatalf("round trip not bit-exact at %d", m.FirstDiff(got))
		}
		for _, opts := range referenceOptions {
			c, err := CompressWithOptions(m, opts)
			if err != nil {
				t.Fatalf("Compress under %+v: %v", opts, err)
			}
			if size, err := sizeOf(m, opts); err != nil || size != c.SizeBytes() {
				t.Fatalf("SizeOf under %+v = %d, %v; SizeBytes = %d", opts, size, err, c.SizeBytes())
			}
		}
		checkAgainstReference(t, m, referenceOptions[int(optSel)%len(referenceOptions)])
	})
}
