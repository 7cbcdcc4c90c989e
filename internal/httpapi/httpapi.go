// Package httpapi exposes the ZipServ serving simulator over HTTP, the
// way an inference-engine control plane would: deployment planning,
// end-to-end run simulation, trace-driven continuous batching, and a
// compression what-if endpoint. It exists so downstream users can
// integrate capacity planning ("which models fit on which GPUs at what
// batch?") without linking Go code.
//
//	GET  /healthz              liveness
//	GET  /v1/models            the §6.1 model zoo
//	GET  /v1/devices           the modelled accelerators
//	POST /v1/simulate          one serving run → Metrics
//	POST /v1/trace             continuous-batching trace → TraceStats
//	POST /v1/compress          compress synthetic weights → codec stats
//
// NewLiveMux adds the live serving endpoints on top, backed by a
// serve.Backend — one continuous-batching server or a sharded replica
// router (internal/serve):
//
//	POST /v1/generate          live generation (429 + drain-rate
//	                           Retry-After on queue overflow, 422 when
//	                           the KV reservation can never fit; NDJSON
//	                           streaming with "stream": true; optional
//	                           "priority" and "ttft_deadline_ms"
//	                           scheduling fields)
//	GET  /v1/stats             live scheduler statistics (aggregate
//	                           plus per-replica breakdown on a router)
//
// Live-endpoint failures carry a machine-readable body:
//
//	{"error":{"code":"queue_full"|"kv_never_fits"|"stopped"|"invalid_request","message":"..."}}
package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"zipserv/internal/core"
	"zipserv/internal/engine"
	"zipserv/internal/gpu"
	"zipserv/internal/weights"
)

// NewMux returns the API handler.
func NewMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/v1/models", handleModels)
	mux.HandleFunc("/v1/devices", handleDevices)
	mux.HandleFunc("/v1/simulate", handleSimulate)
	mux.HandleFunc("/v1/trace", handleTrace)
	mux.HandleFunc("/v1/compress", handleCompress)
	return mux
}

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type modelInfo struct {
		Name      string  `json:"name"`
		Family    string  `json:"family"`
		Layers    int     `json:"layers"`
		HiddenDim int     `json:"hidden_dim"`
		WeightGiB float64 `json:"weight_gib"`
	}
	var out []modelInfo
	for _, m := range weights.Zoo() {
		out = append(out, modelInfo{m.Name, m.Family, m.NumLayers, m.HiddenDim, m.WeightGiB()})
	}
	writeJSON(w, http.StatusOK, out)
}

func handleDevices(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type devInfo struct {
		Name       string  `json:"name"`
		Class      string  `json:"class"`
		VRAMGiB    float64 `json:"vram_gib"`
		MemBWGBps  float64 `json:"mem_bw_gbps"`
		BF16TFLOPS float64 `json:"bf16_tflops"`
	}
	var out []devInfo
	for _, name := range gpu.Names() {
		s := gpu.MustByName(name)
		out = append(out, devInfo{s.Name, string(s.Class), s.VRAMGiB, s.MemBWGBps, s.BF16TFLOPS})
	}
	writeJSON(w, http.StatusOK, out)
}

// SimulateRequest is the /v1/simulate body.
type SimulateRequest struct {
	Model   string `json:"model"`
	Device  string `json:"device"`
	GPUs    int    `json:"gpus"`
	Backend string `json:"backend"`
	Batch   int    `json:"batch"`
	Prompt  int    `json:"prompt"`
	Output  int    `json:"output"`
}

func buildEngine(modelName, device string, gpus int, backend string) (*engine.Engine, error) {
	model, err := weights.ByName(modelName)
	if err != nil {
		return nil, err
	}
	dev, err := gpu.ByName(device)
	if err != nil {
		return nil, err
	}
	if backend == "" {
		backend = string(engine.BackendZipServ)
	}
	return engine.New(engine.Config{
		Model: model, Device: dev, NumGPUs: gpus, Backend: engine.Backend(backend),
	})
}

func handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodePost(w, r, &req) {
		return
	}
	eng, err := buildEngine(req.Model, req.Device, req.GPUs, req.Backend)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	m, err := eng.Run(req.Batch, req.Prompt, req.Output)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// TraceRequest is the /v1/trace body: a synthetic Poisson trace served
// under continuous batching.
type TraceRequest struct {
	Model      string  `json:"model"`
	Device     string  `json:"device"`
	GPUs       int     `json:"gpus"`
	Backend    string  `json:"backend"`
	Requests   int     `json:"requests"`
	RatePerSec float64 `json:"rate_per_sec"`
	MeanPrompt int     `json:"mean_prompt"`
	MeanOutput int     `json:"mean_output"`
	Seed       int64   `json:"seed"`
}

func handleTrace(w http.ResponseWriter, r *http.Request) {
	var req TraceRequest
	if !decodePost(w, r, &req) {
		return
	}
	if req.Requests > 10000 {
		httpError(w, http.StatusBadRequest, "at most 10000 requests per trace")
		return
	}
	eng, err := buildEngine(req.Model, req.Device, req.GPUs, req.Backend)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	trace := engine.SyntheticTrace(req.Requests, req.RatePerSec, req.MeanPrompt, req.MeanOutput, req.Seed)
	if trace == nil {
		httpError(w, http.StatusBadRequest, "invalid trace parameters")
		return
	}
	st, _, err := eng.Serve(trace)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// CompressRequest is the /v1/compress body: synthesize Gaussian
// weights and report real codec statistics.
type CompressRequest struct {
	Rows  int     `json:"rows"`
	Cols  int     `json:"cols"`
	Sigma float64 `json:"sigma"`
	Seed  int64   `json:"seed"`
}

// CompressResponse reports real compression results.
type CompressResponse struct {
	Rows             int     `json:"rows"`
	Cols             int     `json:"cols"`
	UncompressedSize int     `json:"uncompressed_bytes"`
	CompressedSize   int     `json:"compressed_bytes"`
	Ratio            float64 `json:"ratio"`
	BitsPerElement   float64 `json:"bits_per_element"`
	Coverage         float64 `json:"window_coverage"`
	BaseExponent     int     `json:"base_exponent"`
	BitExact         bool    `json:"bit_exact"`
}

func handleCompress(w http.ResponseWriter, r *http.Request) {
	var req CompressRequest
	if !decodePost(w, r, &req) {
		return
	}
	const maxElems = 16 << 20
	if req.Rows <= 0 || req.Cols <= 0 || int64(req.Rows)*int64(req.Cols) > maxElems {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("rows×cols must be in (0, %d]", maxElems))
		return
	}
	if req.Sigma <= 0 {
		req.Sigma = weights.DefaultSigma
	}
	m := weights.Gaussian(req.Rows, req.Cols, req.Sigma, req.Seed)
	cm, err := core.Compress(m)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	back, err := core.Decompress(cm)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, CompressResponse{
		Rows: req.Rows, Cols: req.Cols,
		UncompressedSize: m.SizeBytes(),
		CompressedSize:   cm.SizeBytes(),
		Ratio:            cm.CompressionRatio(),
		BitsPerElement:   cm.BitsPerElement(),
		Coverage:         cm.CoverageRatio(),
		BaseExponent:     int(cm.BaseExp),
		BitExact:         m.Equal(back),
	})
}

func decodePost(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	// The body is one JSON value: anything but whitespace after it is
	// rejected, never silently dropped.
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad request body: data after the JSON value")
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
