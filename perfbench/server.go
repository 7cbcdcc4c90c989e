package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running zipserv-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *bytes.Buffer
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs the server binary on a free loopback port and
// returns once /healthz answers 200, with the time that took. The child
// is killed if this process dies, so no run leaves an orphan behind.
func startServer(bin string, flags []string) (*serverProc, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, fmt.Errorf("picking a port: %w", err)
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		args := append([]string{"-addr", addr}, flags...)
		p := &serverProc{
			cmd:    exec.Command(bin, args...),
			base:   "http://" + addr,
			stderr: new(bytes.Buffer),
			exited: make(chan struct{}),
		}
		p.cmd.Stderr = p.stderr
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		if err := p.cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
		}
		go func() { _ = p.cmd.Wait(); close(p.exited) }()
		if err := p.waitHealthy(20 * time.Second); err != nil {
			lastErr = err
			p.stop()
			continue // most likely a lost race for the port
		}
		return p, time.Since(t0), nil
	}
	return nil, 0, lastErr
}

// waitHealthy polls /healthz until the first 200.
func (p *serverProc) waitHealthy(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("server exited during start-up: %s", strings.TrimSpace(p.stderr.String()))
		default:
		}
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("server not healthy after %s", limit)
}

// stop terminates the server and waits for it to exit: SIGTERM for a
// graceful drain, SIGKILL if that takes too long.
func (p *serverProc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat on
// Linux.
const clockTicks = 100

// cpuSeconds returns the process's user+system CPU time.
func (p *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB returns the process's high-water resident set (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// serverStats is the subset of /v1/stats the checks read.
type serverStats struct {
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	DecompressClaims int64 `json:"decompress_claims"`
	Handoffs         int64 `json:"handoffs"`
}

func (p *serverProc) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get(p.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
