package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a sectord or sectorproxy process on loopback.
type child struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed when the log reader sees EOF

	mu   sync.Mutex
	tail []string // last log lines, for error reports; guarded by mu
}

// startChild runs bin with args, which must make it listen on an
// ephemeral loopback port, and waits until its listening log line names
// the URL and /healthz answers.
func startChild(bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	// The kernel kills the child if the harness dies first, so no run can
	// leave a daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	c := &child{name: filepath.Base(bin), cmd: cmd, done: make(chan struct{})}
	urlc := make(chan string, 1)
	go c.readLogs(logs, urlc)
	select {
	case c.url = <-urlc:
	case <-c.done:
		c.stop()
		return nil, fmt.Errorf("%s exited before listening: %s", c.name, c.logTail())
	case <-time.After(20 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not report its address: %s", c.name, c.logTail())
	}
	if err := waitHealthy(c.url); err != nil {
		c.stop()
		return nil, fmt.Errorf("%s: %w: %s", c.name, err, c.logTail())
	}
	return c, nil
}

// readLogs drains the child's log until EOF, reporting the URL from the
// "listening" line and keeping the last lines.
func (c *child) readLogs(r io.Reader, urlc chan<- string) {
	defer close(c.done)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent && strings.Contains(line, "msg=listening") {
			for _, f := range strings.Fields(line) {
				if u, ok := strings.CutPrefix(f, "url="); ok {
					urlc <- u
					sent = true
				}
			}
		}
		c.mu.Lock()
		if c.tail = append(c.tail, line); len(c.tail) > 20 {
			c.tail = c.tail[1:]
		}
		c.mu.Unlock()
	}
	_, _ = io.Copy(io.Discard, r) // only reached on a scanner error
}

func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, " | ")
}

func (c *child) pid() string { return strconv.Itoa(c.cmd.Process.Pid) }

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and waits
// for the process to exit.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	_ = c.cmd.Wait() // exit status of a terminated daemon carries nothing
}

func waitHealthy(url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after 20s (last error %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fleet is the benchmark topology: one sectord with its default cache, no
// snapshot and no journal, behind one sectorproxy.
type fleet struct {
	sectord, proxy *child
}

func startFleet(bin string) (*fleet, error) {
	d, err := startChild(filepath.Join(bin, "sectord"), "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p, err := startChild(filepath.Join(bin, "sectorproxy"), "-addr", "127.0.0.1:0", "-backends", d.url)
	if err != nil {
		d.stop()
		return nil, err
	}
	return &fleet{sectord: d, proxy: p}, nil
}

func (f *fleet) stop() {
	f.proxy.stop()
	f.sectord.stop()
}

// httpClient keeps one idle connection per benchmark client alive.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}
}

// reply is one HTTP answer.
type reply struct {
	status int
	cache  string // X-Sectord-Cache
	body   []byte
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Sectord-Cache"), body: b}, nil
}
