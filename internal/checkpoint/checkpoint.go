// Package checkpoint implements lossless model-checkpoint compression
// with TCA-TBE — the third extension direction of §7 of the ZipServ
// paper ("efficient model checkpointing", following LMC and ZipNN).
//
// A checkpoint is a named collection of BF16 tensors serialised into a
// single stream: a manifest (names, shapes, offsets, per-tensor CRC)
// followed by each tensor's TCA-TBE encoding. Tensors compress in
// parallel across CPU cores (the paper's offline compressor used a
// 16-core Xeon), and loading is lazy: each tensor decodes on its own,
// located by its manifest offset — what a serving engine does when
// sharding a model across GPUs.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"zipserv/internal/bf16"
	"zipserv/internal/core"
)

var magic = [4]byte{'Z', 'C', 'K', 'P'}

const formatVersion = 1

// maxTensors bounds manifest allocation from hostile headers.
const maxTensors = 1 << 20

// Writer assembles a checkpoint.
type Writer struct {
	opts    core.Options
	tensors []namedTensor
}

type namedTensor struct {
	name string
	m    *bf16.Matrix
}

// NewWriter returns a checkpoint writer using the default TCA-TBE
// options.
func NewWriter() *Writer {
	return &Writer{opts: core.DefaultOptions()}
}

// Add queues a tensor under the given name. Names must be unique and
// non-empty; tensors are written sorted by name for determinism.
func (w *Writer) Add(name string, m *bf16.Matrix) error {
	if name == "" {
		return fmt.Errorf("checkpoint: empty tensor name")
	}
	for _, t := range w.tensors {
		if t.name == name {
			return fmt.Errorf("checkpoint: duplicate tensor %q", name)
		}
	}
	if m == nil || m.Rows <= 0 || m.Cols <= 0 {
		return fmt.Errorf("checkpoint: tensor %q is empty", name)
	}
	w.tensors = append(w.tensors, namedTensor{name, m})
	return nil
}

// Stats reports the outcome of a WriteTo.
type Stats struct {
	Tensors          int
	UncompressedSize int64
	CompressedSize   int64
}

// Ratio returns UncompressedSize / CompressedSize.
func (s Stats) Ratio() float64 {
	if s.CompressedSize == 0 {
		return 0
	}
	return float64(s.UncompressedSize) / float64(s.CompressedSize)
}

// Write compresses all queued tensors (in parallel across GOMAXPROCS
// workers) and writes the checkpoint stream.
func (w *Writer) Write(out io.Writer) (Stats, error) {
	var st Stats
	if len(w.tensors) == 0 {
		return st, fmt.Errorf("checkpoint: no tensors queued")
	}
	tensors := append([]namedTensor(nil), w.tensors...)
	sort.Slice(tensors, func(i, j int) bool { return tensors[i].name < tensors[j].name })

	// Parallel compression: each worker compresses and serialises its
	// tensors into private buffers; assembly is sequential.
	blobs := make([][]byte, len(tensors))
	errs := make([]error, len(tensors))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range tensors {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cm, err := core.CompressWithOptions(tensors[i].m, w.opts)
			if err != nil {
				errs[i] = fmt.Errorf("tensor %q: %w", tensors[i].name, err)
				return
			}
			var buf bytes.Buffer
			if _, err := cm.WriteTo(&buf); err != nil {
				errs[i] = fmt.Errorf("tensor %q: %w", tensors[i].name, err)
				return
			}
			blobs[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return st, fmt.Errorf("checkpoint: %w", err)
		}
	}

	bw := bufio.NewWriter(out)
	// Header.
	if err := binary.Write(bw, binary.LittleEndian, struct {
		Magic   [4]byte
		Version uint16
		Count   uint32
	}{magic, formatVersion, uint32(len(tensors))}); err != nil {
		return st, err
	}
	// Manifest: per tensor name, shape and blob length. Offsets are
	// implied by the cumulative sum, which the reader reconstructs.
	for i, t := range tensors {
		if err := writeString(bw, t.name); err != nil {
			return st, err
		}
		if err := binary.Write(bw, binary.LittleEndian, struct {
			Rows, Cols uint32
			BlobLen    uint64
		}{uint32(t.m.Rows), uint32(t.m.Cols), uint64(len(blobs[i]))}); err != nil {
			return st, err
		}
	}
	// Payloads.
	for i, blob := range blobs {
		if _, err := bw.Write(blob); err != nil {
			return st, err
		}
		st.UncompressedSize += int64(tensors[i].m.SizeBytes())
		st.CompressedSize += int64(len(blob))
	}
	st.Tensors = len(tensors)
	if err := bw.Flush(); err != nil {
		return st, err
	}
	return st, nil
}

// Entry describes one tensor in a loaded checkpoint's manifest.
type Entry struct {
	Name       string
	Rows, Cols int
	BlobLen    int64
	offset     int64 // into the payload region
}

// Checkpoint is a loaded (but not necessarily decompressed) checkpoint.
type Checkpoint struct {
	entries []Entry
	byName  map[string]int
	payload []byte
}

// Read parses a checkpoint stream into memory. Tensor payloads stay
// compressed until requested.
func Read(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	var head struct {
		Magic   [4]byte
		Version uint16
		Count   uint32
	}
	if err := binary.Read(br, binary.LittleEndian, &head); err != nil {
		return nil, fmt.Errorf("checkpoint: header: %w", err)
	}
	if head.Magic != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", head.Magic[:])
	}
	if head.Version != formatVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", head.Version)
	}
	if head.Count == 0 || head.Count > maxTensors {
		return nil, fmt.Errorf("checkpoint: implausible tensor count %d", head.Count)
	}
	ck := &Checkpoint{byName: make(map[string]int, head.Count)}
	var offset int64
	for i := 0; i < int(head.Count); i++ {
		name, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: manifest entry %d: %w", i, err)
		}
		var meta struct {
			Rows, Cols uint32
			BlobLen    uint64
		}
		if err := binary.Read(br, binary.LittleEndian, &meta); err != nil {
			return nil, fmt.Errorf("checkpoint: manifest entry %q: %w", name, err)
		}
		if _, dup := ck.byName[name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate tensor %q in manifest", name)
		}
		e := Entry{
			Name: name, Rows: int(meta.Rows), Cols: int(meta.Cols),
			BlobLen: int64(meta.BlobLen), offset: offset,
		}
		offset += e.BlobLen
		ck.byName[name] = len(ck.entries)
		ck.entries = append(ck.entries, e)
	}
	payload, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: payload: %w", err)
	}
	if int64(len(payload)) != offset {
		return nil, fmt.Errorf("checkpoint: payload is %d bytes, manifest expects %d", len(payload), offset)
	}
	ck.payload = payload
	return ck, nil
}

// Entries lists the manifest in name order.
func (c *Checkpoint) Entries() []Entry {
	return append([]Entry(nil), c.entries...)
}

// Tensor decompresses one tensor by name, verifying its CRC and shape.
func (c *Checkpoint) Tensor(name string) (*bf16.Matrix, error) {
	idx, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("checkpoint: no tensor %q", name)
	}
	e := c.entries[idx]
	blob := c.payload[e.offset : e.offset+e.BlobLen]
	var cm core.Compressed
	if _, err := cm.ReadFrom(bytes.NewReader(blob)); err != nil {
		return nil, fmt.Errorf("checkpoint: tensor %q: %w", name, err)
	}
	m, err := core.Decompress(&cm)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: tensor %q: %w", name, err)
	}
	if m.Rows != e.Rows || m.Cols != e.Cols {
		return nil, fmt.Errorf("checkpoint: tensor %q decoded as %dx%d, manifest says %dx%d",
			name, m.Rows, m.Cols, e.Rows, e.Cols)
	}
	return m, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > 4096 {
		return fmt.Errorf("checkpoint: tensor name longer than 4096 bytes")
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w.(io.Writer), s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 4096 {
		return "", fmt.Errorf("name length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
