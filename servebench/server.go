package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"semsim/servebench/bench"
)

// goBuild compiles the package at pkg (relative to dir) into out.
func goBuild(ctx context.Context, dir, pkg, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = dir
	msg, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return nil
}

// genGraph writes the fixed benchmark graph with the datagen binary.
func genGraph(ctx context.Context, datagen, out string) error {
	cmd := exec.CommandContext(ctx, datagen, "-dataset", bench.Dataset,
		"-size", strconv.Itoa(bench.GraphSize), "-seed", strconv.Itoa(bench.GraphSeed), "-out", out)
	msg, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("datagen: %v\n%s", err, msg)
	}
	return nil
}

// server is one running `semsim serve` process with default flags,
// listening on a kernel-chosen loopback port.
type server struct {
	cmd   *exec.Cmd
	addr  string // host:port, read from the serve log
	setup time.Duration

	logMu   sync.Mutex
	logTail []string
	logDone chan struct{}
	exited  chan struct{}
	waitErr error
}

const logTailLines = 30

// startServer launches serve on graph and returns once /healthz answers
// 200. setup is the time from launch to that first 200. A process that
// exits or stays unready past the deadline fails with its log tail.
func startServer(semsimBin, graph string, deadline time.Duration) (*server, error) {
	cmd := exec.Command(semsimBin, "serve", "-graph", graph, "-debug-addr", "127.0.0.1:0")
	// Die with the harness, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, logDone: make(chan struct{}), exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start semsim serve: %w", err)
	}
	addrc := make(chan string, 1)
	go s.readLog(stderr, addrc)
	go func() {
		<-s.logDone
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()

	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case s.addr = <-addrc:
	case <-s.exited:
		return nil, fmt.Errorf("semsim serve exited before serving (%v):\n%s", s.waitErr, s.tail())
	case <-timer.C:
		s.stop()
		return nil, fmt.Errorf("semsim serve not serving after %s:\n%s", deadline, s.tail())
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(t0)
				client.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("semsim serve exited before ready (%v):\n%s", s.waitErr, s.tail())
		case <-timer.C:
			s.stop()
			return nil, fmt.Errorf("semsim serve not ready after %s:\n%s", deadline, s.tail())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// readLog keeps the last lines of the serve log and reports the listen
// address from its "serving on http://ADDR" line.
func (s *server) readLog(r io.Reader, addrc chan<- string) {
	defer close(s.logDone)
	br := bufio.NewReaderSize(r, 64<<10)
	const marker = "serving on http://"
	for {
		line, err := br.ReadString('\n')
		if line != "" {
			if i := strings.Index(line, marker); i >= 0 {
				addr := line[i+len(marker):]
				if j := strings.IndexAny(addr, " \n"); j >= 0 {
					addr = addr[:j]
				}
				addrc <- addr
			}
			if len(line) > 300 {
				line = line[:300] + "...\n"
			}
			s.logMu.Lock()
			s.logTail = append(s.logTail, line)
			if len(s.logTail) > logTailLines {
				s.logTail = s.logTail[1:]
			}
			s.logMu.Unlock()
		}
		if err != nil {
			return
		}
	}
}

func (s *server) tail() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return strings.Join(s.logTail, "")
}

// stop sends SIGTERM, waits for the graceful drain and kills the process
// if it has not exited after the grace period. It returns once the
// process has ended.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// alive reports whether the process is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// get fetches a debug surface of the server.
func (s *server) get(path string) ([]byte, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + s.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// probe is one before/after sample of the server's own counters.
type probe struct {
	at      time.Time
	metrics bench.Scrape
	memstat struct {
		PauseTotalNs float64
		Mallocs      float64
	}
	cpuTicks float64 // utime + stime, in clock ticks
}

func (s *server) sample() (*probe, error) {
	p := &probe{at: time.Now()}
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	if p.metrics, err = bench.ParseScrape(strings.NewReader(string(body))); err != nil {
		return nil, err
	}
	body, err = s.get("/debug/vars")
	if err != nil {
		return nil, err
	}
	var vars struct {
		Memstats json.RawMessage `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return nil, fmt.Errorf("parse /debug/vars: %w", err)
	}
	if err := json.Unmarshal(vars.Memstats, &p.memstat); err != nil {
		return nil, fmt.Errorf("parse memstats: %w", err)
	}
	p.cpuTicks, err = procCPUTicks(s.cmd.Process.Pid)
	return p, err
}

// procCPUTicks reads utime+stime of pid from /proc/PID/stat.
func procCPUTicks(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	// After ')': state is field 3 of the full line, utime 14, stime 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return ut + st, nil
}

// clockTicks is USER_HZ, fixed at 100 on Linux for every architecture Go
// supports.
const clockTicks = 100

// peakRSSMiB reads VmHWM (peak resident set) of pid.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
