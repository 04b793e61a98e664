package main

import (
	"bufio"
	"bytes"
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
)

// node is one ctflsrv child process serving on a loopback port with a real
// data directory (fsync on: the binary's default).
type node struct {
	cmd  *exec.Cmd
	done chan error // receives cmd.Wait's result once the process has ended
	url  string
	http *http.Client
	logf *os.File
}

// listenRE matches the line ctflsrv logs once its state is replayed and its
// listener is bound.
var listenRE = regexp.MustCompile(`ctflsrv listening on ([0-9.]+:[0-9]+)`)

// startNode launches ctflsrv on dataDir and returns once /healthz answers,
// with the time from process start to that answer.
func startNode(bin, dataDir, logPath string) (*node, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("no ctflsrv binary (--node-bin)")
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addrc := make(chan string, 1)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir,
		"-round-perms", strconv.Itoa(roundPermutations),
		"-round-inner-epsilon", strconv.Itoa(roundInnerEpsilon),
		"-round-workers", strconv.Itoa(roundWorkers))
	cmd.Stdout = logf
	cmd.Stderr = &lineWatch{w: logf, found: addrc}
	// The node must not outlive the benchmark, whatever happens to it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	n := &node{cmd: cmd, done: make(chan error, 1), logf: logf, http: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}}
	go func() { n.done <- cmd.Wait() }()
	select {
	case addr := <-addrc:
		n.url = "http://" + addr
	case err := <-n.done:
		n.done <- err
		n.close()
		return nil, 0, fmt.Errorf("ctflsrv exited during start-up (%v); log in %s", err, logPath)
	case <-time.After(60 * time.Second):
		n.kill()
		return nil, 0, fmt.Errorf("ctflsrv not listening after 60s; log in %s", logPath)
	}
	for {
		code, _, _, err := n.do(http.MethodGet, "/healthz", "", "", nil)
		if err == nil && code == http.StatusOK {
			return n, time.Since(t0), nil
		}
		if time.Since(t0) > 60*time.Second {
			n.kill()
			return nil, 0, fmt.Errorf("ctflsrv /healthz not ready after 60s (status %d, %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill ends the process with SIGKILL — no drain, no final snapshot — and
// waits for it.
func (n *node) kill() {
	_ = n.cmd.Process.Kill() // fails only when the process already ended
	n.close()
}

// close waits for the process and releases the node's resources.
func (n *node) close() {
	<-n.done
	n.http.CloseIdleConnections()
	n.logf.Close()
}

// peakRSS is the node process's peak resident set size in MiB.
func (n *node) peakRSS() (float64, error) { return peakRSSMB(n.cmd.Process.Pid) }

// do sends one request and reads the whole response.
func (n *node) do(method, path, ctype, accept string, body []byte) (int, []byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, n.url+path, rd)
	if err != nil {
		return 0, nil, "", err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := n.http.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header.Get("Content-Type"), err
}

// expect sends a request and fails unless the node answers with code.
func (n *node) expect(code int, method, path, ctype, accept string, body []byte) ([]byte, error) {
	got, data, _, err := n.do(method, path, ctype, accept, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if got != code {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, got, code, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// scrape reads the node's Prometheus exposition into name -> value.
// Histograms contribute their _sum and _count series.
func (n *node) scrape() (map[string]float64, error) {
	data, err := n.expect(http.StatusOK, http.MethodGet, "/metrics", "", "", nil)
	if err != nil {
		return nil, err
	}
	return parseExposition(data)
}

func parseExposition(data []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// lineWatch copies a child's stderr to w and reports the first listen
// address it logs.
type lineWatch struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	found chan string
	done  bool
}

func (l *lineWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.done {
		l.buf = append(l.buf, p...)
		if m := listenRE.FindSubmatch(l.buf); m != nil {
			l.found <- string(m[1])
			l.done, l.buf = true, nil
		} else if i := bytes.LastIndexByte(l.buf, '\n'); i >= 0 {
			l.buf = append(l.buf[:0], l.buf[i+1:]...)
		}
	}
	return l.w.Write(p)
}
