package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procs is the CPU count every process of the benchmark runs with:
// schedd, and the load generator and replay in this process.
const procs = 2

// buildSchedd compiles cmd/schedd into dir. It runs in the current
// directory, which is the repository root or the benchmark module;
// both resolve the package path.
func buildSchedd(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "schedd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/schedd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building schedd: %w", err)
	}
	return bin, nil
}

// daemon is one running schedd with tracing off, errors-only logging
// and no debug listener.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-debug-addr", "",
		"-trace-ring", "-1", "-log-level", "error")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	// The kernel kills schedd if this process dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting schedd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "schedd: listening on "); ok {
				addr <- a
				break
			}
		}
		io.Copy(io.Discard, out) // keep the pipe drained until schedd exits
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("schedd exited before listening: %v", d.err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("schedd did not report its address within 30s")
	}
}

// stop drains schedd with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 10s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(10 * time.Second):
		d.kill()
		return errors.New("schedd did not drain within 10s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// peakRSS reads schedd's resident-set high-water mark (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads GET /metrics into unlabelled series → value.
func (d *daemon) scrape(ctx context.Context, c *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
