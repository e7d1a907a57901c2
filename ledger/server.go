package main

import (
	"bufio"
	"context"
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

	"repro/internal/client"
)

// serverProc is one running bstserve.
type serverProc struct {
	cmd         *exec.Cmd
	addr, admin string
	debug       string // pprof listener, used to read the live heap
	stdoutDone  chan struct{}
	stopOnce    sync.Once
}

// startServer execs bstserve with args on loopback ports it picks itself
// and returns once the data and admin listeners are announced.
func startServer(bin, logPath string, args ...string) (*serverProc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")...)
	cmd.Stderr = logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		logf.Close()
		return nil, fmt.Errorf("start bstserve: %w", err)
	}
	p := &serverProc{cmd: cmd, stdoutDone: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(p.stdoutDone)
		defer logf.Close()
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, "serving on "); ok && p.addr == "" {
				p.addr, _, _ = strings.Cut(rest, " ")
			}
			if _, rest, ok := strings.Cut(line, "admin on http://"); ok && p.admin == "" {
				p.admin, _, _ = strings.Cut(rest, " ")
			}
			if _, rest, ok := strings.Cut(line, "pprof on http://"); ok && p.debug == "" {
				p.debug, _, _ = strings.Cut(rest, "/")
			}
			if !announced && p.addr != "" && p.admin != "" && p.debug != "" {
				announced = true
				close(ready)
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case <-ready:
		return p, nil
	case <-p.stdoutDone:
		p.stop()
		return nil, fmt.Errorf("bstserve exited before serving (log %s)", logPath)
	case <-time.After(150 * time.Second):
		p.stop()
		return nil, fmt.Errorf("bstserve did not announce its listeners (log %s)", logPath)
	}
}

// firstSuccess blocks until one request through cl succeeds.
func firstSuccess(ctx context.Context, cl *client.Client) error {
	for {
		if _, err := cl.Lookup(ctx, 0); err == nil {
			return nil
		} else if ctx.Err() != nil {
			return fmt.Errorf("first request: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// stop kills the server and waits for it to exit; it is idempotent.
func (p *serverProc) stop() {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Kill() // already exited is fine
		<-p.stdoutDone
		_ = p.cmd.Wait() // the kill is the expected exit status
	})
}

// liveHeapMB forces a collection in the server and returns the heap
// still in use, in MiB. Unlike peak RSS, it does not depend on when the
// collector last ran.
func (p *serverProc) liveHeapMB() (float64, error) {
	resp, err := http.Get("http://" + p.debug + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v / (1 << 20), err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no HeapAlloc in the heap profile")
}

// promSample is one scrape of the admin /metrics endpoint, with every
// series summed over its labels.
type promSample map[string]float64

func scrape(admin string) (promSample, error) {
	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("parse /metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta returns b−a for one series.
func delta(a, b promSample, name string) float64 { return b[name] - a[name] }

// copyDir copies the regular files of a data directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
