package httpapi

import (
	"bytes"
	"io"
	"math"
	"net/http"
)

// decodeGenerate decodes a /v1/generate body into req, which must be
// zero, or writes the error response and returns false. It reads the
// body once, under decodePost's size cap, and runs scanGenerate, one
// pass over the lengths and the token array. A body the scanner does
// not take — another GenerateRequest key, a key in another case, a
// duplicate key, null, a fraction or an exponent in an integer, an
// oversized or unterminated body, bytes after the object — goes to
// decodeJSON, decodePost's encoding/json decoder, as the bytes already
// read followed by the rest of the body. So the two paths accept the
// same bodies and decode the same struct, and every error response is
// the one encoding/json's decoder writes.
func decodeGenerate(w http.ResponseWriter, r *http.Request, req *GenerateRequest) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var buf []byte
	// A declared length over the cap is refused whatever the bytes
	// are: encoding/json reads only as far as it needs to say why.
	if r.ContentLength <= maxBodyBytes {
		var err error
		if buf, err = readBody(body, r.ContentLength); err == nil {
			if v, ok := scanGenerate(buf); ok {
				*req = v
				return true
			}
		}
	}
	// After a read error, the body gives encoding/json the same error
	// again: MaxBytesReader repeats the first error it saw, where a
	// short request body would say io.ErrUnexpectedEOF once, then EOF.
	return decodeJSON(w, io.MultiReader(bytes.NewReader(buf), body), req)
}

// maxFirstRead bounds the buffer readBody sizes from a declared length
// before any byte has arrived: a client that declares the 1 MiB cap and
// then stalls holds 64 KiB, not 1 MiB. A larger body grows the buffer
// as its bytes arrive.
const maxFirstRead = 64 << 10

// readBody reads r to EOF into one buffer sized from the declared
// length (size, or -1 when the client declared none) up to
// maxFirstRead, plus one spare byte so that the read which sees EOF
// needs no growth. On a read error it returns what it read with the
// error.
func readBody(r io.Reader, size int64) ([]byte, error) {
	if size < 0 {
		size = 512
	}
	buf := make([]byte, 0, min(size, maxFirstRead)+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// scanGenerate decodes b as one GenerateRequest object, surrounded by
// JSON whitespace only, in a single pass. It takes the three keys the
// hot bodies carry, spelled exactly, each at most once: prompt_len and
// output_len as integers of the form -?(0|[1-9][0-9]*) that fit an int,
// and prompt as an array of such integers. It reports false on anything
// else, the other GenerateRequest keys included.
func scanGenerate(b []byte) (req GenerateRequest, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, skipSpace(b, i+1) == len(b)
	}
	var seen uint8
	for {
		if i == len(b) || b[i] != '"' {
			return req, false
		}
		n := bytes.IndexByte(b[i+1:], '"')
		if n < 0 {
			return req, false
		}
		key := b[i+1 : i+1+n]
		i = skipSpace(b, i+2+n)
		if i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		// An escaped key never equals a name below, so it falls back
		// with the other spellings encoding/json may still match.
		var bit uint8
		switch string(key) {
		case "prompt_len":
			bit = 1 << 0
			req.PromptLen, i, ok = scanInt(b, i)
		case "output_len":
			bit = 1 << 1
			req.OutputLen, i, ok = scanInt(b, i)
		case "prompt":
			bit = 1 << 2
			req.Prompt, i, ok = scanInts(b, i)
		default:
			return req, false
		}
		if !ok || seen&bit != 0 {
			return req, false
		}
		seen |= bit
		i = skipSpace(b, i)
		if i == len(b) {
			return req, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return req, skipSpace(b, i+1) == len(b)
		default:
			return req, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanInt reads an integer -?(0|[1-9][0-9]*) at b[i:] that fits an
// int and returns it with the index after it. Up to 18 digits cannot
// overflow n; a longer integer falls back, as do fractions and
// exponents, which stop the digits at a byte no caller accepts next.
func scanInt(b []byte, i int) (int, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		n = n*10 + uint64(d)
	}
	if i == start || i-start > 18 || (b[start] == '0' && i-start > 1) || n > math.MaxInt {
		return 0, i, false
	}
	if neg {
		return -int(n), i, true
	}
	return int(n), i, true
}

// scanInts reads an array of scanInt integers at b[i:] into one slice
// of exact length: n elements for the n−1 commas before the first ']',
// which a valid array of integers has.
func scanInts(b []byte, i int) ([]int, int, bool) {
	if i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return []int{}, i + 1, true // encoding/json's non-nil empty slice
	}
	n := bytes.IndexByte(b[i:], ']')
	if n < 0 {
		return nil, i, false
	}
	out := make([]int, bytes.Count(b[i:i+n], []byte{','})+1)
	for k := range out {
		var ok bool
		if out[k], i, ok = scanInt(b, i); !ok {
			return nil, i, false
		}
		i = skipSpace(b, i)
		if k == len(out)-1 {
			break
		}
		if i == len(b) || b[i] != ',' {
			return nil, i, false
		}
		i = skipSpace(b, i+1)
	}
	if i == len(b) || b[i] != ']' {
		return nil, i, false
	}
	return out, i + 1, true
}
