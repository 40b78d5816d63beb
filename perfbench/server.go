package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one muaa-serve child process on a loopback port, started with
// its default flags (plus -data-dir on a durable workload). Its log goes to
// a file: the access log writes a JSON line per request.
type server struct {
	cmd     *exec.Cmd
	addr    string
	log     *os.File
	spawned time.Time
	done    chan struct{}
}

// children tracks every live server so an interrupt can kill them all.
var children = struct {
	sync.Mutex
	m map[*server]bool
}{m: map[*server]bool{}}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns bin and waits for /v1/healthz; it returns the server
// and the time from spawn to healthy.
func startServer(bin, dataDir, logPath string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the server if the benchmark itself dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, addr: addr, log: logf, spawned: start, done: make(chan struct{})}
	go func() { cmd.Wait(); close(s.done) }()
	children.Lock()
	children.m[s] = true
	children.Unlock()
	ready, err := waitHealthy(addr, start.Add(60*time.Second))
	if err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("%w (log: %s)", err, logPath)
	}
	return s, ready.Sub(start), nil
}

// kill SIGKILLs the server and waits until it has exited.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.log.Close()
	children.Lock()
	delete(children.m, s)
	children.Unlock()
}

// killAll stops every live server; used on interrupt and on exit.
func killAll() {
	children.Lock()
	list := make([]*server, 0, len(children.m))
	for s := range children.m {
		list = append(list, s)
	}
	children.Unlock()
	for _, s := range list {
		s.kill()
	}
}

// peakRSSMB is the server's VmHWM (peak resident set) in MB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// promSample is one Prometheus text exposition scrape: every sample summed
// over its label sets, keyed by metric name.
type promSample map[string]float64

func parseProm(text []byte) promSample {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// scrape reads GET /v1/metrics over c.
func scrape(c *conn) (promSample, error) {
	status, body, err := c.get("/v1/metrics")
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", status)
	}
	return parseProm(body), nil
}

// delta is after − before for one metric.
func delta(before, after promSample, name string) float64 { return after[name] - before[name] }
