package checkpoint

import (
	"bytes"
	"strings"
	"testing"

	"zipserv/internal/bf16"
	"zipserv/internal/core"
	"zipserv/internal/weights"
)

func buildCheckpoint(t *testing.T) (map[string]*bf16.Matrix, []byte, Stats) {
	t.Helper()
	tensors := map[string]*bf16.Matrix{
		"layers.0.qkv":    weights.Gaussian(192, 128, 0.020, 1),
		"layers.0.o":      weights.Gaussian(128, 128, 0.018, 2),
		"layers.0.gateup": weights.Gaussian(448, 128, 0.022, 3),
		"layers.0.down":   weights.Gaussian(128, 224, 0.028, 4),
		"lm_head":         weights.Gaussian(512, 128, 0.012, 5),
	}
	w := NewWriter()
	for name, m := range tensors {
		if err := w.Add(name, m); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	st, err := w.Write(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tensors, buf.Bytes(), st
}

func TestRoundTrip(t *testing.T) {
	tensors, data, st := buildCheckpoint(t)
	if st.Tensors != len(tensors) {
		t.Errorf("Stats.Tensors = %d, want %d", st.Tensors, len(tensors))
	}
	if st.Ratio() < 1.3 {
		t.Errorf("checkpoint ratio %.3f < 1.3", st.Ratio())
	}
	ck, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ck.Entries()); n != len(tensors) {
		t.Fatalf("manifest lists %d tensors, want %d", n, len(tensors))
	}
	for name, orig := range tensors {
		got, err := ck.Tensor(name)
		if err != nil {
			t.Fatalf("tensor %q: %v", name, err)
		}
		if !orig.Equal(got) {
			t.Errorf("tensor %q not bit-exact", name)
		}
	}
}

func TestLazySingleTensor(t *testing.T) {
	tensors, data, _ := buildCheckpoint(t)
	ck, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ck.Tensor("lm_head")
	if err != nil {
		t.Fatal(err)
	}
	if !tensors["lm_head"].Equal(m) {
		t.Error("lazy tensor load not bit-exact")
	}
	if _, err := ck.Tensor("missing"); err == nil {
		t.Error("missing tensor returned")
	}
}

func TestManifestOrderDeterministic(t *testing.T) {
	_, data, _ := buildCheckpoint(t)
	ck, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	entries := ck.Entries()
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name >= entries[i].Name {
			t.Fatalf("manifest not sorted: %q before %q", entries[i-1].Name, entries[i].Name)
		}
	}
	// Byte-identical on rewrite (determinism of the whole pipeline).
	tensors, data2, _ := buildCheckpoint(t)
	_ = tensors
	if !bytes.Equal(data, data2) {
		t.Error("identical inputs produced different checkpoint bytes")
	}
}

func TestWriterValidation(t *testing.T) {
	w := NewWriter()
	if err := w.Add("", bf16.NewMatrix(4, 4)); err == nil {
		t.Error("empty name accepted")
	}
	if err := w.Add("x", nil); err == nil {
		t.Error("nil tensor accepted")
	}
	if err := w.Add("x", &bf16.Matrix{}); err == nil {
		t.Error("empty tensor accepted")
	}
	if err := w.Add("x", weights.Gaussian(8, 8, 0.02, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Add("x", weights.Gaussian(8, 8, 0.02, 2)); err == nil {
		t.Error("duplicate name accepted")
	}
	var empty Writer
	if _, err := empty.Write(&bytes.Buffer{}); err == nil {
		t.Error("empty checkpoint accepted")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	_, data, _ := buildCheckpoint(t)

	t.Run("badMagic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] = 'X'
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("truncatedPayload", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(data[:len(data)-10])); err == nil {
			t.Error("truncated payload accepted")
		}
	})
	t.Run("flippedPayloadByte", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)-100] ^= 0xFF
		ck, err := Read(bytes.NewReader(bad))
		if err != nil {
			return // rejected at parse: fine
		}
		// Must be rejected at tensor decode (per-tensor CRC).
		failed := false
		for _, e := range ck.Entries() {
			if _, err := ck.Tensor(e.Name); err != nil {
				failed = true
			}
		}
		if !failed {
			t.Error("flipped payload byte produced no error on any tensor")
		}
	})
	t.Run("hostileCount", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		// Count field lives at offset 6.
		bad[6], bad[7], bad[8], bad[9] = 0xFF, 0xFF, 0xFF, 0xFF
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Error("hostile tensor count accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(nil)); err == nil {
			t.Error("empty stream accepted")
		}
	})
}

func TestCustomOptions(t *testing.T) {
	// No exported constructor takes options, but Read accepts any valid
	// encoding, so a file written elsewhere with 4-bit codewords loads.
	w := &Writer{opts: core.Options{CodewordBits: 4, Selection: core.WindowSelection}}
	orig := weights.Gaussian(128, 128, 0.02, 9)
	if err := w.Add("t", orig); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.Write(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ck.Tensor("t")
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(m) {
		t.Error("4-bit checkpoint not bit-exact")
	}
}

func TestModelScaleCheckpoint(t *testing.T) {
	// A realistic multi-layer model: every sampled layer of
	// LLaMA3.1-8B, written and restored bit-exactly.
	if testing.Short() {
		t.Skip("short mode")
	}
	model, err := weights.ByName("LLaMA3.1-8B")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter()
	want := map[string]*bf16.Matrix{}
	for _, kind := range weights.BlockLayerKinds {
		for layer := 0; layer < 2; layer++ {
			name := strings.ToLower(string(kind)) + "." + string(rune('0'+layer))
			m := weights.SampledLayerMatrix(model, kind, layer, 32)
			want[name] = m
			if err := w.Add(name, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	st, err := w.Write(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ratio() < 1.35 {
		t.Errorf("model checkpoint ratio %.3f < 1.35", st.Ratio())
	}
	ck, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range want {
		got, err := ck.Tensor(name)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(got) {
			t.Errorf("tensor %q not bit-exact", name)
		}
	}
}
