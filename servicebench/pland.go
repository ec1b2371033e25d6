package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// plandProc is one pland process on a loopback port. Its temp dir holds the
// process's TMPDIR (spill runs land there) and, when durable, its -data-dir;
// stop removes the dir after checking that no spill dir was left behind.
type plandProc struct {
	cmd     *exec.Cmd
	base    string
	dir     string
	exited  chan struct{}
	waitErr error
}

// startPland launches bin and waits until /readyz answers 200.
func startPland(bin, workdir string, durable bool, extra ...string) (*plandProc, error) {
	dir, err := os.MkdirTemp(workdir, "pland-")
	if err != nil {
		return nil, fmt.Errorf("creating pland dir: %w", err)
	}
	if err := os.Mkdir(filepath.Join(dir, "tmp"), 0o755); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}
	if durable {
		args = append(args, "-data-dir", filepath.Join(dir, "data"), "-fsync", fsyncPolicy)
	}
	args = append(args, extra...)
	logf, err := os.Create(filepath.Join(dir, "pland.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Join(dir, "tmp"))
	// The kernel kills pland if this process dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting pland: %w", err)
	}
	p := &plandProc{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), dir: dir, exited: make(chan struct{})}
	go func() { p.waitErr = cmd.Wait(); close(p.exited) }()
	if err := p.awaitReady(30 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("picking a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (p *plandProc) awaitReady(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("pland exited during start-up: %v (log: %s)", p.waitErr, p.logTail())
		default:
		}
		resp, err := c.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("pland not ready after %v (log: %s)", limit, p.logTail())
}

// stop sends SIGTERM, waits for the drain, falls back to SIGKILL, and
// removes the process's dir. It reports spill dirs pland left in its TMPDIR.
func (p *plandProc) stop() error {
	if p == nil {
		return nil
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
	leftovers, _ := filepath.Glob(filepath.Join(p.dir, "tmp", "mr-spill-*"))
	var err error
	if len(leftovers) > 0 {
		err = fmt.Errorf("pland left %d spill dirs behind", len(leftovers))
	}
	os.RemoveAll(p.dir)
	return err
}

func (p *plandProc) logTail() string {
	b, _ := os.ReadFile(filepath.Join(p.dir, "pland.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// procStats reads pland's CPU time (utime+stime) and peak resident set.
func (p *plandProc) procStats() (cpu time.Duration, hwmKB int64, err error) {
	pid := p.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(fields) < 13 {
		return 0, 0, errors.New("short /proc stat line")
	}
	ut, _ := strconv.ParseInt(fields[11], 10, 64)
	st, _ := strconv.ParseInt(fields[12], 10, 64)
	cpu = time.Duration(ut+st) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			hwmKB, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	return cpu, hwmKB, nil
}

// promScrape is one /metrics exposition: series (name plus label set) to
// value.
type promScrape map[string]float64

func (p *plandProc) scrape() (promScrape, error) {
	_, body, _, err := call(&http.Client{Timeout: 10 * time.Second}, http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	out := promScrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of the named metric, across label sets.
func (s promScrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// newConn returns a client that keeps one keep-alive connection open.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// call sends one request and reads the whole response. The latency runs
// from just before the request is written until the last body byte is read.
func call(c *http.Client, method, url string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, b, lat, nil
}
