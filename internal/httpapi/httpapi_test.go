package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func doJSON(t *testing.T, srv *httptest.Server, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewMux())
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	resp, body := doJSON(t, srv, http.MethodGet, "/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "ok") {
		t.Errorf("body %q", body)
	}
	resp, _ = doJSON(t, srv, http.MethodPost, "/healthz", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz status %d, want 405", resp.StatusCode)
	}
}

func TestModelsAndDevices(t *testing.T) {
	srv := newServer(t)
	resp, body := doJSON(t, srv, http.MethodGet, "/v1/models", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models status %d", resp.StatusCode)
	}
	var models []map[string]any
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatal(err)
	}
	if len(models) != 11 {
		t.Errorf("%d models, want 11", len(models))
	}

	resp, body = doJSON(t, srv, http.MethodGet, "/v1/devices", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("devices status %d", resp.StatusCode)
	}
	var devices []map[string]any
	if err := json.Unmarshal(body, &devices); err != nil {
		t.Fatal(err)
	}
	if len(devices) < 7 {
		t.Errorf("%d devices, want >= 7", len(devices))
	}
}

func TestSimulate(t *testing.T) {
	srv := newServer(t)
	resp, body := doJSON(t, srv, http.MethodPost, "/v1/simulate", SimulateRequest{
		Model: "LLaMA3.1-8B", Device: "RTX4090", Backend: "zipserv",
		Batch: 8, Prompt: 64, Output: 128,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var m struct {
		Throughput float64 `json:"Throughput"`
		Waves      int     `json:"Waves"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Throughput <= 0 || m.Waves < 1 {
		t.Errorf("degenerate metrics: %s", body)
	}
}

func TestSimulateErrors(t *testing.T) {
	srv := newServer(t)
	cases := []struct {
		name string
		req  SimulateRequest
		want int
	}{
		{"unknownModel", SimulateRequest{Model: "GPT-5", Device: "RTX4090", Batch: 1, Prompt: 1, Output: 1}, 400},
		{"unknownDevice", SimulateRequest{Model: "LLaMA3.1-8B", Device: "TPU", Batch: 1, Prompt: 1, Output: 1}, 400},
		{"unknownBackend", SimulateRequest{Model: "LLaMA3.1-8B", Device: "RTX4090", Backend: "triton", Batch: 1, Prompt: 1, Output: 1}, 400},
		{"doesNotFit", SimulateRequest{Model: "LLaMA3.1-405B", Device: "RTX4090", Backend: "vllm", Batch: 1, Prompt: 1, Output: 1}, 400},
		// A TP degree must divide the model's 32 attention heads.
		{"tpSplitsHeads", SimulateRequest{Model: "LLaMA3.1-8B", Device: "RTX4090", GPUs: 3, Batch: 8, Prompt: 128, Output: 64}, 400},
		{"tpExceedsHeads", SimulateRequest{Model: "LLaMA3.1-8B", Device: "RTX4090", GPUs: 5000, Batch: 8, Prompt: 128, Output: 64}, 400},
		{"zeroBatch", SimulateRequest{Model: "LLaMA3.1-8B", Device: "RTX4090", Backend: "zipserv", Batch: 0, Prompt: 1, Output: 1}, 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := doJSON(t, srv, http.MethodPost, "/v1/simulate", c.req)
			if resp.StatusCode != c.want {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, c.want, body)
			}
			if !strings.Contains(string(body), "error") {
				t.Errorf("error body missing: %s", body)
			}
		})
	}
	// Malformed JSON and unknown fields.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/simulate", strings.NewReader(`{"mdoel":`))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status %d, want 400", resp.StatusCode)
	}
	if r, _ := doJSON(t, srv, http.MethodGet, "/v1/simulate", nil); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate status %d, want 405", r.StatusCode)
	}
}

func TestTrace(t *testing.T) {
	srv := newServer(t)
	resp, body := doJSON(t, srv, http.MethodPost, "/v1/trace", TraceRequest{
		Model: "LLaMA3.1-8B", Device: "RTX4090", Backend: "zipserv",
		Requests: 10, RatePerSec: 20, MeanPrompt: 64, MeanOutput: 32, Seed: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var st struct {
		Requests   int     `json:"Requests"`
		Throughput float64 `json:"Throughput"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 10 || st.Throughput <= 0 {
		t.Errorf("trace stats: %s", body)
	}
	// Oversized traces are rejected.
	resp, _ = doJSON(t, srv, http.MethodPost, "/v1/trace", TraceRequest{
		Model: "LLaMA3.1-8B", Device: "RTX4090", Requests: 20000,
		RatePerSec: 1, MeanPrompt: 1, MeanOutput: 1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized trace status %d, want 400", resp.StatusCode)
	}
	// Invalid parameters.
	resp, _ = doJSON(t, srv, http.MethodPost, "/v1/trace", TraceRequest{
		Model: "LLaMA3.1-8B", Device: "RTX4090", Requests: 0, RatePerSec: 1,
		MeanPrompt: 1, MeanOutput: 1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty trace status %d, want 400", resp.StatusCode)
	}
}

func TestCompress(t *testing.T) {
	srv := newServer(t)
	resp, body := doJSON(t, srv, http.MethodPost, "/v1/compress", CompressRequest{
		Rows: 256, Cols: 256, Seed: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr CompressResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.BitExact {
		t.Error("compression endpoint reports not bit-exact")
	}
	if cr.Ratio < 1.3 || cr.Ratio > 1.6 {
		t.Errorf("ratio %.3f outside the Gaussian band", cr.Ratio)
	}
	// Oversized requests are rejected before allocation.
	resp, _ = doJSON(t, srv, http.MethodPost, "/v1/compress", CompressRequest{
		Rows: 1 << 16, Cols: 1 << 16,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized compress status %d, want 400", resp.StatusCode)
	}
}
