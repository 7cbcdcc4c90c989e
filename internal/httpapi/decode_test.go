package httpapi

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"zipserv/internal/serve"
)

// decodeOutcome is what one decode of a /v1/generate body leaves
// behind: whether it succeeded, the struct, and the response written.
type decodeOutcome struct {
	ok          bool
	req         GenerateRequest
	status      int
	contentType string
	body        string
}

// decodeWith runs one decoder on body. A chunked body declares no
// Content-Length, as a client streaming it would.
func decodeWith(decode func(http.ResponseWriter, *http.Request, *GenerateRequest) bool,
	body []byte, chunked bool) decodeOutcome {
	r := &http.Request{Method: http.MethodPost, Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
	if chunked {
		r.ContentLength = -1
	}
	w := httptest.NewRecorder()
	var out decodeOutcome
	out.ok = decode(w, r, &out.req)
	out.status, out.contentType, out.body = w.Code, w.Header().Get("Content-Type"), w.Body.String()
	return out
}

// decodeOracle is decodePost, the encoding/json decoder, with the
// signature of decodeGenerate.
func decodeOracle(w http.ResponseWriter, r *http.Request, req *GenerateRequest) bool {
	return decodePost(w, r, req)
}

// checkAgainstOracle requires decodeGenerate to give what decodePost
// gives on body: the same success, status, Content-Type, response bytes
// and struct. reflect.DeepEqual tells a nil prompt from an empty one.
func checkAgainstOracle(t *testing.T, body []byte, chunked bool) decodeOutcome {
	t.Helper()
	got := decodeWith(decodeGenerate, body, chunked)
	want := decodeWith(decodeOracle, body, chunked)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("body %.80q (chunked %v):\n got %+v\nwant %+v", body, chunked, got, want)
	}
	return want
}

// lengthOnlyBody and tokenPromptBody build the request bodies the
// perfbench workloads send, byte for byte.
func lengthOnlyBody(prompt, output int) []byte {
	return []byte(`{"prompt_len":` + strconv.Itoa(prompt) + `,"output_len":` + strconv.Itoa(output) + `}`)
}

func tokenPromptBody(prompt []int, output int) []byte {
	b := make([]byte, 0, 8*len(prompt)+64)
	b = append(b, `{"prompt_len":`...)
	b = strconv.AppendInt(b, int64(len(prompt)), 10)
	b = append(b, `,"output_len":`...)
	b = strconv.AppendInt(b, int64(output), 10)
	b = append(b, `,"prompt":[`...)
	for i, t := range prompt {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	return append(b, "]}"...)
}

// tenantPromptBody is a tenants-compressed body: a 512-token tenant
// prefix and 64 unique tokens, ids drawn from [1, 2^20], 32 outputs.
func tenantPromptBody(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	prompt := make([]int, 512+64)
	for i := range prompt {
		prompt[i] = 1 + rng.Intn(1<<20)
	}
	return tokenPromptBody(prompt, 32)
}

// TestGenerateDecodeMatchesEncodingJSON runs both decoders on bodies
// the scanner leaves to encoding/json and on neighbours of them, with
// and without a declared length.
func TestGenerateDecodeMatchesEncodingJSON(t *testing.T) {
	over := strings.Repeat(" ", maxBodyBytes)
	for _, tc := range []struct {
		name, body string
		ok         bool   // the oracle's verdict
		err        string // a part of its 400 body
	}{
		{"key in another case", `{"Prompt_Len":4,"output_len":2}`, true, ""},
		{"stream null", `{"prompt_len":4,"output_len":2,"stream":null}`, true, ""},
		{"stream true", `{"prompt_len":4,"output_len":2,"stream":true}`, true, ""},
		{"empty prompt", `{"prompt_len":4,"output_len":2,"prompt":[]}`, true, ""},
		{"empty prompt with space", `{"output_len":2,"prompt":[ ]}`, true, ""},
		{"null prompt", `{"prompt_len":4,"output_len":2,"prompt":null}`, true, ""},
		{"duplicate key", `{"prompt_len":4,"output_len":2,"prompt_len":8}`, true, ""},
		{"duplicate prompt", `{"output_len":2,"prompt":[1,2,3],"prompt":[4]}`, true, ""},
		{"deadline out of range", `{"prompt_len":4,"output_len":2,"ttft_deadline_ms":1e400}`, false,
			"cannot unmarshal number 1e400 into Go struct field GenerateRequest.ttft_deadline_ms of type float64"},
		{"deadline", `{"prompt_len":4,"output_len":2,"ttft_deadline_ms":-0.25E+3}`, true, ""},
		{"leading zeros", `{"prompt_len":007,"output_len":2}`, false, "invalid character '0'"},
		{"minus zero", `{"prompt_len":-0,"output_len":2}`, true, ""},
		{"fraction in an int", `{"prompt_len":1.0,"output_len":2}`, false, "cannot unmarshal number 1.0"},
		{"exponent in an int", `{"prompt_len":4,"output_len":1e2}`, false, "cannot unmarshal number 1e2"},
		{"exponent in a token", `{"output_len":2,"prompt":[1,2e0]}`, false, "cannot unmarshal number 2e0"},
		{"19 digits that fit", `{"prompt_len":4,"output_len":9223372036854775807}`, true, ""},
		{"19 digits that overflow", `{"prompt_len":9999999999999999999,"output_len":2}`, false,
			"cannot unmarshal number 9999999999999999999"},
		{"18 digits", `{"prompt_len":-999999999999999999,"output_len":2}`, true, ""},
		{"escape in priority", `{"prompt_len":4,"output_len":2,"priority":"b\u0061tch"}`, true, ""},
		{"non-ASCII priority", "{\"prompt_len\":4,\"output_len\":2,\"priority\":\"b\xc3\xa4tch\"}", true, ""},
		{"invalid UTF-8 priority", "{\"prompt_len\":4,\"output_len\":2,\"priority\":\"\xff\"}", true, ""},
		{"control byte in priority", "{\"prompt_len\":4,\"priority\":\"a\tb\"}", false, "invalid character"},
		{"escaped key", `{"prompt\u005flen":4,"output_len":2}`, true, ""},
		{"unknown key", `{"prompt_len":4,"output_len":2,"seed":1}`, false, `unknown field \"seed\"`},
		{"byte-order mark", "\xef\xbb\xbf{\"prompt_len\":4,\"output_len\":2}", false, "invalid character"},
		{"empty object", ` { } `, true, ""},
		{"empty body", ``, false, "EOF"},
		{"whitespace around", " \t\r\n{ \"prompt_len\" : 4 , \"output_len\" :2 }\n", true, ""},
		{"trailing garbage", `{"prompt_len":4,"output_len":2} x`, false, "data after the JSON value"},
		{"second object", `{"prompt_len":4}{"output_len":2}`, false, "data after the JSON value"},
		{"unterminated", `{"prompt_len":4,"output_len":2`, false, "unexpected EOF"},
		{"unterminated prompt", `{"prompt_len":4,"prompt":[1,2`, false, "unexpected EOF"},
		{"trailing comma", `{"prompt_len":4,}`, false, "invalid character '}'"},
		{"string length", `{"prompt_len":"4"}`, false, "cannot unmarshal string"},
		{"bool length", `{"prompt_len":true}`, false, "cannot unmarshal bool"},
		{"array", `[]`, false, "cannot unmarshal array"},
		{"over the cap, valid then spaces", `{"prompt_len":4,"output_len":2}` + over, false,
			"data after the JSON value"},
		{"over the cap, invalid early", `{"prompt_len":?` + over, false, "invalid character '?'"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, chunked := range []bool{false, true} {
				want := checkAgainstOracle(t, []byte(tc.body), chunked)
				if want.ok != tc.ok || !strings.Contains(want.body, tc.err) {
					t.Errorf("chunked %v: encoding/json gave ok=%v %d %s, want ok=%v and %q",
						chunked, want.ok, want.status, want.body, tc.ok, tc.err)
				}
			}
		})
	}
}

// TestScannerTakesPerfbenchBodies: the bodies the benchmark's three
// workloads send must be decoded by the scanner itself, to what
// encoding/json decodes; otherwise the fast path could silently become
// dead code behind its fallback.
func TestScannerTakesPerfbenchBodies(t *testing.T) {
	for name, body := range map[string][]byte{
		"chat-unique":        lengthOnlyBody(300, 70),
		"tenants-compressed": tenantPromptBody(1),
		"disagg-long":        lengthOnlyBody(1024, 64),
	} {
		got, ok := scanGenerate(body)
		if !ok {
			t.Errorf("%s: the scanner left the body to encoding/json", name)
			continue
		}
		if want := decodeWith(decodeOracle, body, false); !want.ok || !reflect.DeepEqual(got, want.req) {
			t.Errorf("%s: scanned %+v, encoding/json decoded %+v (ok %v)", name, got, want.req, want.ok)
		}
	}
}

// offerReader records the largest buffer a Read offered it.
type offerReader struct {
	io.Reader
	largest int
}

func (r *offerReader) Read(p []byte) (int, error) {
	r.largest = max(r.largest, len(p))
	return r.Reader.Read(p)
}

// TestGenerateDecodeBoundsDeclaredLength: a client that declares the
// 1 MiB cap and sends a few bytes gets a buffer of maxFirstRead, not of
// the length it declared, and its body still decodes.
func TestGenerateDecodeBoundsDeclaredLength(t *testing.T) {
	body := &offerReader{Reader: strings.NewReader(`{"prompt_len":4,"output_len":2}`)}
	r := &http.Request{Method: http.MethodPost, Body: io.NopCloser(body), ContentLength: maxBodyBytes}
	var req GenerateRequest
	if !decodeGenerate(httptest.NewRecorder(), r, &req) || req.PromptLen != 4 || req.OutputLen != 2 {
		t.Fatalf("decoded %+v", req)
	}
	if body.largest > maxFirstRead+1 {
		t.Errorf("a read offered %d bytes for a %d-byte declared length, want at most %d",
			body.largest, maxBodyBytes, maxFirstRead+1)
	}
}

// TestGenerateDecodeThroughTheHandler posts bodies that decode on
// either path to a live server, chunked and with a declared length: a
// key in another case is still served, and a refused body keeps
// encoding/json's 400.
func TestGenerateDecodeThroughTheHandler(t *testing.T) {
	srv, _ := newLiveServer(t, serve.Config{QueueDepth: 8})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"Prompt_Len":4,"output_len":2}`, http.StatusOK},
		{`{"prompt_len":4,"output_len":2,"priority":"batch"}`, http.StatusOK},
		{string(tenantPromptBody(2)), http.StatusOK},
		{`{"prompt_len":4,"output_len":2,"ttft_deadline_ms":1e400}`, http.StatusBadRequest},
	} {
		for _, chunked := range []bool{false, true} {
			var rd io.Reader = strings.NewReader(tc.body)
			if chunked {
				rd = io.MultiReader(rd) // no length for the client to declare
			}
			resp, err := srv.Client().Post(srv.URL+"/v1/generate", "application/json", rd)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("body %.60q (chunked %v): status %d, want %d (%s)", tc.body, chunked, resp.StatusCode, tc.want, got)
			}
			if tc.want != http.StatusOK {
				if want := decodeWith(decodeOracle, []byte(tc.body), chunked); string(got) != want.body {
					t.Errorf("body %.60q: response %s, want encoding/json's %s", tc.body, got, want.body)
				}
			}
		}
	}
}

// TestGenerateDecodeShortBody: a body that ends before its declared
// Content-Length reads as io.ErrUnexpectedEOF once, then io.EOF. Over
// a real connection, both decoders must answer it alike, a complete
// object and an empty body included.
func TestGenerateDecodeShortBody(t *testing.T) {
	decoders := map[string]func(http.ResponseWriter, *http.Request, *GenerateRequest) bool{
		"/scan": decodeGenerate, "/oracle": decodeOracle,
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req GenerateRequest
		if decoders[r.URL.Path](w, r, &req) {
			writeJSON(w, http.StatusOK, req)
		}
	}))
	defer srv.Close()
	post := func(path, body string) string {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: zipserv\r\nContent-Length: %d\r\n\r\n%s", path, len(body)+8, body)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.Status + " " + string(got)
	}
	for _, body := range []string{``, `{}`, `{"prompt_len":4,"output_len":2}`, `{"prompt_len":4,`} {
		got, want := post("/scan", body), post("/oracle", body)
		if got != want || !strings.HasPrefix(want, "400 ") {
			t.Errorf("body %q, 8 bytes short: got %s, want encoding/json's %s (a 400)", body, got, want)
		}
	}
}

// FuzzGenerateDecode: on every body, declared or chunked, the scanner
// with its fallback decodes what encoding/json decodes and writes the
// same response.
func FuzzGenerateDecode(f *testing.F) {
	for _, body := range []string{
		string(lengthOnlyBody(300, 70)),
		string(tokenPromptBody([]int{1, 1048576, 42, -7, 0}, 32)),
		`{"prompt_len":3,"output_len":8,"stream":true,"prompt":[5,-6,0],"priority":"batch","ttft_deadline_ms":250.5}`,
		`{"Prompt_Len":4,"output_len":2,"stream":null,"prompt":null}`,
		`{"prompt_len":4,"prompt_len":-0,"prompt":[],"ttft_deadline_ms":1e400}`,
		`{"prompt_len":007,"output_len":1.0,"prompt":[1e2,9223372036854775807]}`,
		"\xef\xbb\xbf{\"priority\":\"b\\u0061tch\xc3\xa4\"} x",
		` { "prompt" : [ 1 , 2 ] , "stream" : false } `,
	} {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, chunked bool) {
		checkAgainstOracle(t, body, chunked)
	})
}

// BenchmarkGenerateDecode decodes the tenants-compressed body (576
// token ids) and the chat-unique one (lengths only), the ladder's HTTP
// row.
func BenchmarkGenerateDecode(b *testing.B) {
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"tenants-compressed", tenantPromptBody(1)},
		{"chat-unique", lengthOnlyBody(300, 70)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rd := bytes.NewReader(bc.body)
			r := httptest.NewRequest(http.MethodPost, "/v1/generate", rd)
			w := httptest.NewRecorder()
			b.SetBytes(int64(len(bc.body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(bc.body)
				var req GenerateRequest
				if !decodeGenerate(w, r, &req) {
					b.Fatalf("decode failed: %s", w.Body)
				}
			}
		})
	}
}
