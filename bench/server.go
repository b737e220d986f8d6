package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// child is an ewserve process started with its default flags on a
// loopback port.
type child struct {
	cmd  *exec.Cmd
	url  string
	done chan error
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

// startServer execs bin and returns once /statsz answers 200, with the
// time that took.
func startServer(bin string) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start ewserve: %w", err)
	}
	c := &child{cmd: cmd, url: "http://" + addr, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(c.url + "/statsz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case err := <-c.done:
			return nil, 0, fmt.Errorf("ewserve exited during startup: %v", err)
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, fmt.Errorf("ewserve did not answer /statsz within 60 s")
		}
	}
}

// stop interrupts the server and waits for it to exit.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every mainstream Linux build.
const clockTicks = 100

// cpuSeconds reads the process's user+system CPU time.
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := data[bytes.LastIndexByte(data, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return (ut + st) / clockTicks, nil
}

// stealSeconds reads the CPU time the hypervisor has taken from this
// machine's CPUs, summed over them: the steal field of /proc/stat.
func stealSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("no steal field in /proc/stat")
	}
	st, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc/stat steal: %w", err)
	}
	return st / clockTicks, nil
}

// rssMB reads the process's resident set, VmRSS, in MB.
func (c *child) rssMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmRSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// usage is one reading of the server's cumulative CPU time and its
// resident set, and of the host's cumulative steal time.
type usage struct {
	at                  time.Time
	cpuS, rssMB, stealS float64
}

// usagePeriod is how often sample reads the server's usage.
const usagePeriod = 100 * time.Millisecond

// sample reads the server's usage now, every usagePeriod after, and once
// more when stop is closed, and returns the readings in time order.
func (c *child) sample(stop <-chan struct{}) ([]usage, error) {
	tick := time.NewTicker(usagePeriod)
	defer tick.Stop()
	var out []usage
	for stopped := false; ; {
		cpu, err := c.cpuSeconds()
		if err != nil {
			return nil, err
		}
		rss, err := c.rssMB()
		if err != nil {
			return nil, err
		}
		steal, err := stealSeconds()
		if err != nil {
			return nil, err
		}
		out = append(out, usage{time.Now(), cpu, rss, steal})
		if stopped {
			return out, nil
		}
		select {
		case <-stop:
			stopped = true
		case <-tick.C:
		}
	}
}
