package benchfmt

import (
	"bytes"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: zipserv/internal/engine
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkStepperSharedPrefixUncached 	    3853	    284954 ns/op	  200275 B/op	      37 allocs/op
BenchmarkStepperDecodeHeavy          	    4578	    250993 ns/op	  200832 B/op	      42 allocs/op
BenchmarkLiveSharedPrefix/uncached-8         	    8908	    131060 ns/op	  118573 B/op	     154 allocs/op
BenchmarkLiveSharedPrefix/cached-8           	    6478	    182335.5 ns/op
BenchmarkVerifyKVBlock-2  200  43325 ns/op  189.08 MB/s  0 B/op  0 allocs/op
BenchmarkExportImportKV-2   	     312	   3811442 ns/op	        49.00 blocks/op	  318004 B/op	     689 allocs/op
PASS
ok  	zipserv/internal/engine	3.446s
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("parsed %d results, want 6: %+v", len(got), got)
	}
	if got[1].Name != "BenchmarkStepperDecodeHeavy" || got[1].NsPerOp != 250993 ||
		got[1].BytesPerOp != 200832 || got[1].AllocsPerOp != 42 {
		t.Errorf("DecodeHeavy parsed as %+v", got[1])
	}
	if got[2].Name != "BenchmarkLiveSharedPrefix/uncached" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", got[2].Name)
	}
	if got[3].NsPerOp != 182335.5 || got[3].AllocsPerOp != -1 || got[3].BytesPerOp != -1 {
		t.Errorf("benchmem-less line parsed as %+v", got[3])
	}
	if want := (Result{Name: "BenchmarkVerifyKVBlock", NsPerOp: 43325}); got[4] != want {
		t.Errorf("b.SetBytes line parsed as %+v, want %+v", got[4], want)
	}
	if want := (Result{Name: "BenchmarkExportImportKV", NsPerOp: 3811442, BytesPerOp: 318004, AllocsPerOp: 689}); got[5] != want {
		t.Errorf("b.ReportMetric line parsed as %+v, want %+v", got[5], want)
	}
	if _, err := Parse(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCompare(t *testing.T) {
	old := []Result{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 170},
		{Name: "BenchmarkGone", NsPerOp: 50, AllocsPerOp: 5},
	}
	new := []Result{
		{Name: "BenchmarkA", NsPerOp: 130, AllocsPerOp: 42},
		{Name: "BenchmarkNew", NsPerOp: 10, AllocsPerOp: 1},
	}
	deltas := Compare(old, new)
	if len(deltas) != 1 {
		t.Fatalf("compared %d benchmarks, want the 1 shared one: %+v", len(deltas), deltas)
	}
	d := deltas[0]
	if pct := d.NsChangePct(); pct != 30 {
		t.Errorf("ns change %v%%, want 30", pct)
	}
	if pct := d.AllocsChangePct(); pct > -75.2 || pct < -75.4 {
		t.Errorf("allocs change %v%%, want about -75.3", pct)
	}
	missing := Delta{OldAllocs: -1, NewAllocs: 42}
	if missing.AllocsChangePct() != 0 {
		t.Errorf("missing old allocs should yield 0%% change")
	}
}

func TestSnapshotRoundTripWithCSV(t *testing.T) {
	rows, err := ParseCompareCSV(strings.NewReader(
		"mode,decode_tpot_p99_s\nstatic-64,0.031849\nadaptive,0.030877\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1]["mode"] != "adaptive" || rows[1]["decode_tpot_p99_s"] != "0.030877" {
		t.Fatalf("CSV rows %+v", rows)
	}
	if _, err := ParseCompareCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged CSV accepted")
	}

	snap := Snapshot{
		Commit:     "abc123",
		Benchmarks: []Result{{Name: "BenchmarkA", NsPerOp: 1, BytesPerOp: 2, AllocsPerOp: 3}},
		Compares:   map[string][]map[string]string{"adaptive": rows},
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Commit != snap.Commit || len(back.Benchmarks) != 1 ||
		back.Benchmarks[0] != snap.Benchmarks[0] ||
		back.Compares["adaptive"][0]["mode"] != "static-64" {
		t.Errorf("round trip mangled the snapshot: %+v", back)
	}
}
