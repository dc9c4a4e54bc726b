package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"semsim/servebench/bench"
)

// The reference child runs the host speed references (see
// bench/hostref.go): this command started with -refchild serves /echo
// with a fixed body shaped like a /query answer, and /cpu by running one
// CPU unit on two threads and answering with its time in ns. The harness
// calls it on a keep-alive connection of its own, between the reads it
// measures and around every server start, while the server idles.

const echoBody = `{
  "u": "item-123",
  "v": "item-456",
  "sem": 0.4123456789012345,
  "semsim": 0.012345678901234567,
  "simrank": 0.0023456789012345678,
  "cost": {
    "walk_steps": 1234,
    "meet_cells": 0,
    "kernel_probes": 56,
    "so_hits": 12,
    "so_misses": 3,
    "pairs": 1
  }
}
`

// serveRefChild runs the reference server until the process is killed.
func serveRefChild() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("refchild on %s\n", ln.Addr())
	body := []byte(echoBody)
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	mux.HandleFunc("/cpu", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, bench.CPUUnit().Nanoseconds())
	})
	return http.Serve(ln, mux)
}

// refChild is a running reference child and the connection to it.
type refChild struct {
	cmd    *exec.Cmd
	c      *conn
	exited chan struct{}
}

// startRefChild starts this binary as the reference child.
func startRefChild() (*refChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-refchild")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reference child: %w", err)
	}
	r := &refChild{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(out).ReadString('\n')
		addrc <- strings.TrimSpace(strings.TrimPrefix(line, "refchild on "))
		cmd.Wait()
		close(r.exited)
	}()
	select {
	case addr := <-addrc:
		if addr == "" {
			<-r.exited
			return nil, errors.New("reference child exited before serving")
		}
		r.c = newConn(addr, readTimeout)
	case <-time.After(10 * time.Second):
		r.stop()
		return nil, errors.New("reference child not serving after 10s")
	}
	// Untimed calls open the connection and warm both units.
	for i := 0; i < 20; i++ {
		if _, err := r.echo(); err != nil {
			r.stop()
			return nil, err
		}
		if _, err := r.cpu(); err != nil {
			r.stop()
			return nil, err
		}
	}
	return r, nil
}

// echo times one round trip to the child.
func (r *refChild) echo() (time.Duration, error) {
	t0 := time.Now()
	if !r.c.call(http.MethodGet, "/echo", "sb-ref", nil) {
		return 0, errors.New("reference round trip failed")
	}
	return time.Since(t0), nil
}

// cpu runs one CPU unit in the child and returns its time there.
func (r *refChild) cpu() (time.Duration, error) {
	if !r.c.call(http.MethodGet, "/cpu", "sb-ref", nil) {
		return 0, errors.New("reference CPU unit failed")
	}
	ns, err := strconv.ParseInt(r.c.buf.String(), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reference CPU unit: %w", err)
	}
	return time.Duration(ns), nil
}

// cpuSamples appends n CPU unit times to ds.
func (r *refChild) cpuSamples(ds []time.Duration, n int) ([]time.Duration, error) {
	for i := 0; i < n; i++ {
		d, err := r.cpu()
		if err != nil {
			return ds, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// stop kills the child and waits for it to end.
func (r *refChild) stop() {
	if r.c != nil {
		r.c.close()
	}
	r.cmd.Process.Kill()
	<-r.exited
}
