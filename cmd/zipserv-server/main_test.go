package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"zipserv/internal/engine"
	"zipserv/internal/gpu"
	"zipserv/internal/serve"
	"zipserv/internal/weights"
)

// TestPprofFlag pins that the profiling handlers are mounted on the API
// listener only with -pprof, and that the API answers either way.
func TestPprofFlag(t *testing.T) {
	model, err := weights.ByName("LLaMA3.1-8B")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Model: model, Device: gpu.MustByName("RTX4090"), Backend: engine.BackendZipServ})
	if err != nil {
		t.Fatal(err)
	}
	live, err := serve.New(serve.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pprof bool
		want  int
	}{{false, http.StatusNotFound}, {true, http.StatusOK}} {
		ts := httptest.NewServer(apiHandler(live, tc.pprof))
		for path, want := range map[string]int{"/debug/pprof/cmdline": tc.want, "/healthz": http.StatusOK} {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("-pprof=%v: GET %s answered %d, want %d", tc.pprof, path, resp.StatusCode, want)
			}
		}
		ts.Close()
	}
}
