package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runAsCommand makes the test binary act as zipserv-serve when set, so
// the tests drive the real flag surface and exit codes in a subprocess.
const runAsCommand = "ZIPSERV_SERVE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serve runs the command with args and returns its stdout, stderr and
// exit code.
func serve(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsCommand+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("zipserv-serve %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestCompareModesMatchGolden runs every compare invocation the CI
// perf-regression job runs. Each mode replays its fleets in virtual
// time on one goroutine, so its CSV must match testdata/golden byte for
// byte, and every -require-*-win gate must pass.
func TestCompareModesMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		mode string
		args []string
	}{
		{mode: "policies"},
		{mode: "prefix", args: []string{"-requests", "40", "-out", "64", "-require-prefix-win"}},
		{mode: "chunking", args: []string{"-requests", "40", "-out", "128"}},
		{mode: "adaptive", args: []string{"-require-adaptive-win"}},
		{mode: "compress", args: []string{"-require-compress-win"}},
		{mode: "disagg", args: []string{"-requests", "48", "-require-disagg-win"}},
		{mode: "affinity", args: []string{"-requests", "64", "-require-affinity-win"}},
		{mode: "chaos", args: []string{"-requests", "64", "-require-chaos-win"}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			csvPath := filepath.Join(t.TempDir(), "compare-"+tc.mode+".csv")
			args := append([]string{"-compare-" + tc.mode}, tc.args...)
			args = append(args, "-csv", csvPath)
			stdout, stderr, code := serve(t, args...)
			if code != 0 {
				t.Fatalf("zipserv-serve %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout, stderr)
			}
			got, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", "compare-"+tc.mode+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("compare-%s.csv drifted from its golden copy\ngot:\n%s\nwant:\n%s", tc.mode, got, want)
			}
		})
	}
}

// TestMisconfigurationIsAUsageError pins that a flag the selected mode
// would silently ignore, or a second mode, is rejected up front with
// exit status 2 and a message naming the offending flag.
func TestMisconfigurationIsAUsageError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // must appear in stderr
	}{
		{[]string{"-compare-chunking", "-require-prefix-win"}, "-require-prefix-win"},
		{[]string{"-compare-prefix", "-compare-chaos"}, "-compare-chaos"},
		{[]string{"-compare-compress", "-requests", "-5"}, "-requests"},
		{[]string{"-compare-compress", "-requests", "0"}, "-requests"},
		{[]string{"-compare-adaptive", "-seed", "3"}, "-seed"},
		{[]string{"-compare-chaos", "-csv", "x.csv", "-prompt", "64"}, "-prompt"},
		{[]string{"-live", "-compare-policies"}, "-compare-policies"},
		{[]string{"-live", "-batch", "8"}, "-batch"},
		{[]string{"-live", "-csv", "x.csv"}, "-csv"},
		{[]string{"-requests", "8"}, "-requests"},
		{[]string{"-compare", "-require-chaos-win"}, "-require-chaos-win"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			args := append([]string(nil), tc.args...)
			for i, a := range args {
				if a == "x.csv" { // keep a mode that wrongly runs from writing into the package
					args[i] = filepath.Join(t.TempDir(), a)
				}
			}
			stdout, stderr, code := serve(t, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if !strings.Contains(stderr, tc.flag) {
				t.Errorf("stderr does not name %s:\n%s", tc.flag, stderr)
			}
			if stdout != "" {
				t.Errorf("a usage error ran the mode anyway:\n%s", stdout)
			}
		})
	}
}

// TestInvalidDeploymentExits pins that a tensor-parallel degree that
// does not divide the model's attention heads ends every mode with exit
// status 1 and the engine's error, instead of pricing truncated shards.
func TestInvalidDeploymentExits(t *testing.T) {
	for _, args := range [][]string{
		{"-gpus", "3"},
		{"-gpus", "3", "-compare"},
		{"-live", "-gpus", "5000", "-requests", "4"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			stdout, stderr, code := serve(t, args...)
			if code != 1 || !strings.Contains(stderr, "attention heads") {
				t.Fatalf("exit %d, want 1 with an attention-head error\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
		})
	}
}
