package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one proraced process started with its shipped defaults plus a
// journal directory, so -fsync always reaches the disk.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	obs  *http.Client // introspection requests, on their own connection

	mu  sync.Mutex
	log []string // the last stderr lines, for diagnostics
}

// startDaemon launches `proraced serve` on an ephemeral loopback port with
// its journal under dir and returns once /healthz answers.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin, "serve", "-listen", "127.0.0.1:0", "-wal", filepath.Join(dir, "wal"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting proraced: %w", err)
	}
	d := &daemon{
		cmd:  cmd,
		done: make(chan struct{}),
		obs:  &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}},
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			if len(d.log) > 20 {
				d.log = d.log[1:]
			}
			d.mu.Unlock()
			if i := strings.Index(line, "addr=http://"); i >= 0 && strings.Contains(line, "msg=serving") {
				select {
				case addr <- strings.Fields(line[i+len("addr="):])[0]:
				default:
				}
			}
		}
		// Keep draining if a line overflowed the scanner, so the daemon never
		// blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
		// The exit status is not needed: a daemon that dies early shows up
		// as failed requests and in the log tail.
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.base = <-addr:
	case <-d.done:
		return nil, fmt.Errorf("proraced exited while booting: %s", d.logTail())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("proraced did not start listening within 60s: %s", d.logTail())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.obs.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("proraced at %s never became healthy: %v", d.base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

// stop drains the daemon with SIGTERM, as an operator would, and waits for
// it to exit; a daemon that does not drain within a minute is killed.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.obs.CloseIdleConnections()
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.obs.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
