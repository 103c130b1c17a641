package main

import (
	"bytes"
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

// runDiagnose executes `diagnose -logs dir -scheduler slurm` and returns
// its stdout, the wall time from exec to exit and the process's peak
// resident set in MB. The peak is VmHWM polled from /proc while the
// process runs: the rusage of a child Go starts carries the parent's own
// high-water mark (the address space is shared until exec), which here
// is the benchmark holding a whole scenario.
func runDiagnose(bin, dir string, extra ...string) (out []byte, wall time.Duration, rssMB float64, err error) {
	args := append([]string{"-logs", dir, "-scheduler", "slurm"}, extra...)
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	exited := make(chan struct{})
	polled := make(chan float64)
	go func() {
		peak := 0.0
		for {
			if mb, err := peakRSSMB(cmd.Process.Pid); err == nil {
				peak = mb
			}
			select {
			case <-exited:
				polled <- peak
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	err = cmd.Wait()
	wall = time.Since(start)
	close(exited)
	rssMB = <-polled
	if err != nil {
		return nil, wall, 0, fmt.Errorf("diagnose %s: %v\n%s", dir, err, stderr.String())
	}
	return stdout.Bytes(), wall, rssMB, nil
}

// peakRSSMB reads VmHWM of a running process.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// node is one running `serve` process.
type node struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServe executes `serve -repl-wal walDir -repl-sync` (plus -logs
// when logsDir is set) and waits for /healthz to answer 200, returning
// the time from exec to that answer. accept, when set, must also hold
// for the health body before the node counts as ready.
func startServe(bin, logsDir, walDir string, accept func(health) bool) (*node, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr, "-scheduler", "slurm", "-repl-wal", walDir, "-repl-sync"}
	if logsDir != "" {
		args = append(args, "-logs", logsDir)
	}
	n := &node{cmd: exec.Command(bin, args...), url: "http://" + addr}
	n.cmd.Stderr = &n.stderr
	// Should the benchmark itself be killed, the node must not outlive it.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	exited := make(chan struct{})
	n.exited = exited
	start := time.Now()
	if err := n.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		n.cmd.Wait()
		close(exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for time.Since(start) < 90*time.Second {
		select {
		case <-exited:
			return nil, 0, fmt.Errorf("serve exited during start-up: %s", n.stderr.String())
		default:
		}
		if h, err := getHealth(probe, n.url); err == nil && (accept == nil || accept(h)) {
			return n, time.Since(start), nil
		}
		time.Sleep(time.Millisecond)
	}
	n.kill()
	return nil, 0, fmt.Errorf("serve not ready after 90s: %s", n.stderr.String())
}

// kill sends SIGKILL and waits for the process to be reaped. Safe to
// call more than once.
func (n *node) kill() {
	n.cmd.Process.Kill()
	<-n.exited
}

// peakRSSMB reads VmHWM of the running node.
func (n *node) peakRSSMB() (float64, error) { return peakRSSMB(n.cmd.Process.Pid) }
