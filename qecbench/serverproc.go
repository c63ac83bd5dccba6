package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// serverProc is a running qec-serve child.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	logf   *os.File
}

// startServer execs bin with args plus a free loopback -addr and waits for
// the first 200 from /healthz. It returns the time from exec to that answer.
func startServer(bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("pick a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, addr: addr, exited: make(chan struct{}), logf: logf}

	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	deadline := start.Add(90 * time.Second)
	for {
		select {
		case <-p.exited:
			p.logf.Close()
			return nil, 0, fmt.Errorf("qec-serve exited during set-up: %s", tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, errors.New("qec-serve not healthy after 90s")
		}
		if c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
			hc := newConn(addr, c)
			status, _, _, err := hc.do("GET", "/healthz", nil)
			hc.close()
			if err == nil && status == 200 {
				return p, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop interrupts the server (a graceful drain) and waits until it has
// exited, killing it if the drain hangs.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.logf.Close()
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// fetchStats reads GET /stats.
func fetchStats(addr string) (*server.StatsResponse, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	hc := newConn(addr, c)
	defer hc.close()
	status, _, body, err := hc.do("GET", "/stats", nil)
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	if status != 200 {
		return nil, fmt.Errorf("GET /stats: status %d", status)
	}
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return &st, nil
}

// taskCPU sums the on-CPU time of every thread of pid, from the first field
// of /proc/<pid>/task/*/schedstat.
func taskCPU(pid int) (time.Duration, error) {
	dirs, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(dirs) == 0 {
		return 0, fmt.Errorf("read schedstat of %d: no tasks", pid)
	}
	var sum int64
	for _, path := range dirs {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", path, err)
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// hostCPU is the aggregate line of /proc/stat: ticks spent stolen by the
// hypervisor and in total.
type hostCPU struct{ steal, total uint64 }

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	fields := strings.Fields(sc.Text())
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is already
	// counted in user.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of CPU time the host stole between a and b.
func stealShare(a, b hostCPU) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// peakRSS reads VmHWM of pid in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// loadAvg1 reads the host's 1-minute load average.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
