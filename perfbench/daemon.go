package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"seqpoint/internal/server"
)

// daemon is one running seqpointd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// setup is exec to the first /healthz 200.
	setup time.Duration
	done  chan struct{}
	mu    sync.Mutex
	log   []string
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// ctl carries the control requests (/healthz, /v1/stats), apart from
// the measured connections.
var ctl = &http.Client{Timeout: 30 * time.Second}

// startDaemon execs seqpointd on a free loopback port over cacheFile and
// waits for its first healthy /healthz. The listen address comes from
// the daemon's own start-up log line, which it prints once the listener
// is bound, so no polling is needed. Cancelling ctx kills the daemon.
func startDaemon(ctx context.Context, bin, cacheFile string, parallelism int) (*daemon, error) {
	cmd := exec.CommandContext(ctx, bin,
		"-addr", "127.0.0.1:0",
		"-cache-file", cacheFile,
		"-parallelism", strconv.Itoa(parallelism),
	)
	// The kernel kills the daemon if perfbench dies by a path that skips
	// the cancel, such as a panic or SIGKILL.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting seqpointd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		// Drain stderr for the daemon's whole life so it never blocks on
		// a full pipe; the reader ends when the process exits.
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			d.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		io.Copy(io.Discard, stderr)
		cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		return nil, fmt.Errorf("seqpointd exited during start-up: %s", d.logText())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("seqpointd did not report its listen address within 60s")
	}
	resp, err := ctl.Get(d.base + "/healthz")
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("seqpointd /healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, fmt.Errorf("seqpointd /healthz returned %d", resp.StatusCode)
	}
	d.setup = time.Since(start)
	return d, nil
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

// kill stops the daemon at once and waits for it; nothing it would
// write on shutdown is wanted.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// stop sends SIGTERM, which drains the daemon and makes it write its
// cache snapshot, and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
	case <-time.After(120 * time.Second):
		d.kill()
		return errors.New("seqpointd did not exit within 120s of SIGTERM")
	}
	if st := d.cmd.ProcessState; st == nil || !st.Success() {
		return fmt.Errorf("seqpointd exited uncleanly: %v\n%s", st, d.logText())
	}
	return nil
}

// stats reads the daemon's /v1/stats.
func (d *daemon) stats() (server.StatsResponse, error) {
	var s server.StatsResponse
	resp, err := ctl.Get(d.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/stats returned %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// clockTicksPerSec is USER_HZ, the unit of /proc/<pid>/stat CPU times;
// Linux fixes it at 100 for user space.
const clockTicksPerSec = 100

// cpuTime reads the process's user+system CPU time from
// /proc/<pid>/stat. Steal time is not charged to the process.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicksPerSec, nil
}

// peakRSS reads the process's VmHWM in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
