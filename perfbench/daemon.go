package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one boundsd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	done chan struct{} // closed once the process has exited and been reaped
	once sync.Once
}

// logSink keeps boundsd's log output (for error reports) and signals
// two of its lines: the listen address of "listening on ADDR", and
// "boundsd: ready", which a warming boundsd logs as /readyz turns 200.
type logSink struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	addr      chan string   // receives the listen address once
	ready     chan struct{} // closed at the ready line
	sentAddr  bool
	sentReady bool
}

func newLogSink() *logSink {
	return &logSink{addr: make(chan string, 1), ready: make(chan struct{})}
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
	text := s.buf.String()
	const marker = "listening on "
	if i := strings.Index(text, marker); i >= 0 && !s.sentAddr {
		if rest := text[i+len(marker):]; strings.ContainsAny(rest, " \n") {
			s.addr <- strings.Fields(rest)[0]
			s.sentAddr = true
		}
	}
	if !s.sentReady && strings.Contains(text, "boundsd: ready\n") {
		close(s.ready)
		s.sentReady = true
	}
	return len(p), nil
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// launch starts boundsd on a loopback port with the workload's flags,
// waits for /readyz to answer 200, runs the workload's warm-up, and
// returns the daemon with its set-up time in seconds: from the launch
// to the end of the warm-up.
func launch(ctx context.Context, bin string, w *workload, in *inputs) (*daemon, float64, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-drain", "2s"}, w.flags...)
	logs := newLogSink()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logs
	cmd.Stderr = logs
	// boundsd must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start boundsd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries nothing
		close(d.done)
	}()
	fail := func(err error) (*daemon, float64, error) {
		d.stop()
		return nil, 0, fmt.Errorf("%w\nboundsd log:\n%s", err, logs)
	}
	select {
	case addr := <-logs.addr:
		d.base = "http://" + addr
	case <-d.done:
		return fail(errors.New("boundsd exited during start-up"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("boundsd did not report its listen address within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	if w.precompute() {
		// A warming boundsd answers 503 on /readyz until it logs that it
		// is ready. Waiting for the line instead of polling keeps the
		// driver off the CPUs the precompute pass runs on.
		select {
		case <-logs.ready:
		case <-d.done:
			return fail(errors.New("boundsd exited before it was ready"))
		case <-time.After(2 * time.Minute):
			return fail(errors.New("boundsd not ready within 2m"))
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	if err := d.waitReady(ctx, c); err != nil {
		return fail(err)
	}
	if w.warm != nil {
		if err := w.warm(ctx, c, d.base, in); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	return d, time.Since(start).Seconds(), nil
}

// waitReady polls /readyz every 100µs until it answers 200 (at once,
// unless boundsd is still warming).
func (d *daemon) waitReady(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("boundsd not ready within 2m")
		}
		select {
		case <-d.done:
			return errors.New("boundsd exited before it was ready")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// stop asks boundsd to shut down gracefully and returns once the
// process has exited; a process still running after 10s is killed.
// Safe to call more than once.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	})
}

// clockTicks is the unit of the CPU times in /proc/<pid>/stat: Linux
// reports them in USER_HZ, which is 100 per second.
const clockTicks = 100

// cpuTicks returns boundsd's user plus system CPU time in clock ticks,
// fields 14 and 15 of /proc/<pid>/stat.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// The command name (field 2) may hold spaces; the fields after its
	// closing parenthesis start at field 3.
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc stat CPU times: %w", err)
	}
	return utime + stime, nil
}

// peakRSSKiB returns boundsd's VmHWM, its peak resident set, in KiB.
func (d *daemon) peakRSSKiB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
