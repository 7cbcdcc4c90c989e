package huffman

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, data []byte, chunk int) *Stream {
	t.Helper()
	s, err := Encode(data, chunk)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := s.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(data, got) {
		t.Fatalf("round trip failed: %d in, %d out", len(data), len(got))
	}
	return s
}

func TestRoundTripBasic(t *testing.T) {
	roundTrip(t, []byte("the quick brown fox jumps over the lazy dog"), 0)
}

func TestRoundTripSingleSymbol(t *testing.T) {
	s := roundTrip(t, bytes.Repeat([]byte{42}, 1000), 0)
	// Single-symbol alphabets get a 1-bit code: 1000 bits ≈ 125 bytes.
	if len(s.Bits) != 125 {
		t.Errorf("bitstream is %d bytes, want 125", len(s.Bits))
	}
}

func TestRoundTripSingleByte(t *testing.T) {
	roundTrip(t, []byte{7}, 0)
}

func TestRoundTripAllByteValues(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	roundTrip(t, data, 0)
}

func TestEncodeEmptyFails(t *testing.T) {
	if _, err := Encode(nil, 0); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestSkewedDistributionCompresses(t *testing.T) {
	// An exponent-like distribution (few dominant symbols) must
	// compress well below 8 bits/symbol.
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 100000)
	for i := range data {
		// ~N(124, 1.3) over bytes: entropy ≈ 2.6 bits like §3.1.
		data[i] = byte(124 + int(rng.NormFloat64()*1.3))
	}
	s := roundTrip(t, data, 0)
	bitsPerSym := float64(len(s.Bits)) * 8 / float64(len(data))
	if bitsPerSym > 3.2 {
		t.Errorf("skewed stream uses %.2f bits/symbol, want < 3.2", bitsPerSym)
	}
	// Huffman is within 1 bit of entropy.
	ent := entropy(data)
	if bitsPerSym < ent {
		t.Errorf("%.3f bits/symbol beats entropy %.3f — impossible for a prefix code", bitsPerSym, ent)
	}
	if bitsPerSym > ent+1 {
		t.Errorf("%.3f bits/symbol exceeds entropy+1 (%.3f)", bitsPerSym, ent+1)
	}
}

func TestUniformDataDoesNotCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 50000)
	rng.Read(data)
	s := roundTrip(t, data, 0)
	bitsPerSym := float64(len(s.Bits)) * 8 / float64(len(data))
	if bitsPerSym < 7.9 {
		t.Errorf("uniform bytes compressed to %.2f bits/symbol — too good", bitsPerSym)
	}
}

func TestChunkedDecodeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(120 + rng.Intn(8))
	}
	s := roundTrip(t, data, 1024)
	if s.NumChunks() != 10 {
		t.Fatalf("NumChunks = %d, want 10", s.NumChunks())
	}
	var reassembled []byte
	for i := 0; i < s.NumChunks(); i++ {
		chunk, err := s.DecodeChunk(i)
		if err != nil {
			t.Fatalf("DecodeChunk(%d): %v", i, err)
		}
		reassembled = append(reassembled, chunk...)
	}
	if !bytes.Equal(data, reassembled) {
		t.Error("chunk-parallel decode does not reassemble the stream")
	}
	// Last chunk is short (10000 % 1024 = 784).
	last, err := s.DecodeChunk(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(last) != 10000-9*1024 {
		t.Errorf("last chunk has %d symbols, want %d", len(last), 10000-9*1024)
	}
}

func TestDecodeChunkOutOfRange(t *testing.T) {
	s := roundTrip(t, []byte("hello world"), 4)
	if _, err := s.DecodeChunk(-1); err == nil {
		t.Error("negative chunk accepted")
	}
	if _, err := s.DecodeChunk(s.NumChunks()); err == nil {
		t.Error("out-of-range chunk accepted")
	}
}

func TestDecodeTruncatedBitstreamFails(t *testing.T) {
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 100)
	s, err := Encode(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Bits = s.Bits[:len(s.Bits)/2]
	if _, err := s.Decode(); err == nil {
		t.Error("truncated bitstream decoded without error")
	}
}

func TestDecodeCorruptedTableFails(t *testing.T) {
	data := bytes.Repeat([]byte{9, 9, 9, 5, 5, 1}, 50)
	s, err := Encode(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Injecting many short codes violates the Kraft inequality.
	for i := 0; i < 8; i++ {
		s.CodeLens[200+i] = 1
	}
	if _, err := s.Decode(); err == nil {
		t.Error("Kraft-violating table accepted")
	}
}

func TestSizeBytesAccountsMetadata(t *testing.T) {
	data := bytes.Repeat([]byte{1, 2}, 5000)
	s, err := Encode(data, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := len(s.Bits) + 256 + 8*s.NumChunks() + 16
	if s.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", s.SizeBytes(), want)
	}
}

// expectedBits returns the size of data encoded under the stream's code
// (sum of code lengths), in bits: the encoder's oracle, which the
// bitstream may exceed only by its final byte's padding.
func expectedBits(s *Stream, data []byte) uint64 {
	var total uint64
	for _, b := range data {
		total += uint64(s.CodeLens[b])
	}
	return total
}

func TestExpectedBitsMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(rng.Intn(16))
	}
	s, err := Encode(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	exp := expectedBits(s, data)
	actual := uint64(len(s.Bits)) * 8
	if actual < exp || actual > exp+8 {
		t.Errorf("bitstream %d bits, expected-bits model says %d", actual, exp)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte, chunkSel uint8) bool {
		if len(data) == 0 {
			return true
		}
		chunk := int(chunkSel)%2000 + 1
		s, err := Encode(data, chunk)
		if err != nil {
			return false
		}
		got, err := s.Decode()
		return err == nil && bytes.Equal(data, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func entropy(data []byte) float64 {
	var freq [256]float64
	for _, b := range data {
		freq[b]++
	}
	n := float64(len(data))
	var h float64
	for _, f := range freq {
		if f > 0 {
			p := f / n
			h -= p * math.Log2(p)
		}
	}
	return h
}
