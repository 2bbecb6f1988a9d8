package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Wire structs of icid's HTTP API (docs/api.md), declared here so the
// benchmark depends on the wire format only, not on the server package.

type budgetSpec struct {
	NodeLimit     int `json:"node_limit,omitempty"`
	MaxIterations int `json:"max_iterations,omitempty"`
}

type submitRequest struct {
	Model   string         `json:"model,omitempty"`
	Builtin string         `json:"builtin,omitempty"`
	Params  map[string]int `json:"params,omitempty"`
	Engine  string         `json:"engine,omitempty"`
	Budget  budgetSpec     `json:"budget"`
	Wait    bool           `json:"wait,omitempty"`
}

type submitResponse struct {
	Cached bool       `json:"cached"`
	Status *jobStatus `json:"status"`
}

type jobStatus struct {
	State    string      `json:"state"`
	Error    string      `json:"error"`
	Attempts []attempt   `json:"attempts"`
	Result   *resultWire `json:"result"`
}

type attempt struct {
	Engine        string  `json:"engine"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	PeakLiveNodes int     `json:"peak_live_nodes"`
	Escalated     bool    `json:"escalated"`
}

type resultWire struct {
	Outcome        string  `json:"outcome"`
	Iterations     int     `json:"iterations"`
	PeakStateNodes int     `json:"peak_state_nodes"`
	PeakProfile    []int   `json:"peak_profile"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	ViolationDepth int     `json:"violation_depth"`
	PeakLiveNodes  int     `json:"peak_live_nodes"`
}

type batchRequest struct {
	Name   string          `json:"name,omitempty"`
	Jobs   []submitRequest `json:"jobs"`
	Policy []string        `json:"policy,omitempty"`
	Slice  budgetSpec      `json:"slice"`
}

type batchResponse struct {
	ID   string   `json:"id"`
	Jobs []string `json:"jobs"`
}

type batchStatus struct {
	State   string      `json:"state"`
	Members []jobStatus `json:"members"`
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	CacheMemoryHits int64 `json:"cache_memory_hits"`
	CacheStoreHits  int64 `json:"cache_store_hits"`
	CacheEvictions  int64 `json:"cache_evictions"`
	Store           *struct {
		Bytes     int64 `json:"bytes"`
		Puts      int64 `json:"puts"`
		Gets      int64 `json:"gets"`
		GetMisses int64 `json:"get_misses"`
	} `json:"store"`
}

// answer is what two runs of one key must agree on.
type answer struct {
	Outcome        string
	Iterations     int
	PeakStateNodes int
	ViolationDepth int
	Profile        string
}

func wireAnswer(r *resultWire) answer {
	return answer{r.Outcome, r.Iterations, r.PeakStateNodes, r.ViolationDepth, fmt.Sprint(r.PeakProfile)}
}

var errNoIcid = errors.New("the service workloads need -icid <binary> (bench/run.sh builds it)")

// daemon is one running icid process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    bytes.Buffer // stdout and stderr; read only after exit
	exited chan error
	client *http.Client
}

// startDaemon spawns icid on a free loopback port and waits for its
// first /healthz 200. It returns the daemon and the time that took.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, time.Duration, error) {
	if bin == "" {
		return nil, 0, errNoIcid
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		base:   "http://" + addr,
		exited: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting icid: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()

	deadline := t0.Add(20 * time.Second)
	for {
		if d.healthy() {
			return d, time.Since(t0), nil
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, 0, fmt.Errorf("icid exited during start-up (%v): %s", err, d.log.String())
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("icid not healthy after 20s")
		}
	}
}

func (d *daemon) healthy() bool {
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// freeAddr picks a loopback port no one listens on yet.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and waits for exit; icid must report a clean drain.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signaling icid: %w", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("icid exited with %v: %s", err, d.log.String())
		}
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("icid did not exit within 60s of SIGTERM")
	}
	if !strings.Contains(d.log.String(), "drained cleanly") {
		return fmt.Errorf("icid did not log \"drained cleanly\": %s", d.log.String())
	}
	return nil
}

// checkDrain counts a daemon that did not drain cleanly as a wrong
// answer: a drain that loses work can lose verdicts.
func checkDrain(rep *report, err error) {
	if err != nil {
		rep.Wrong++
		rep.Details["drain"] = err.Error()
	}
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// startTimed starts icid setupRepeats times and keeps the last daemon;
// set-up time is the median of the spawn-to-healthy times. Every daemon
// but the last is stopped, and must drain cleanly. newArgs gives each
// spawn its arguments.
func startTimed(ctx context.Context, cfg config, newArgs func() ([]string, error)) (*daemon, float64, error) {
	xs := make([]float64, 0, setupRepeats)
	for i := 0; ; i++ {
		args, err := newArgs()
		if err != nil {
			return nil, 0, err
		}
		d, took, err := startDaemon(ctx, cfg.Icid, args...)
		if err != nil {
			return nil, 0, err
		}
		xs = append(xs, took.Seconds())
		if i == setupRepeats-1 {
			return d, percentile(xs, 0.5), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// postJSON sends body and decodes a 2xx response into out. A non-2xx
// status is returned as *httpError.
func (d *daemon) postJSON(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return d.do(req, out)
}

func (d *daemon) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	return d.do(req, out)
}

type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return "HTTP " + strconv.Itoa(e.status) + ": " + e.body }

func (d *daemon) do(req *http.Request, out any) error {
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{status: resp.StatusCode, body: strings.TrimSpace(string(b))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// drainStream reads an NDJSON event stream to EOF.
func (d *daemon) drainStream(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &httpError{status: resp.StatusCode}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (d *daemon) metrics(ctx context.Context) (serverMetrics, error) {
	var m serverMetrics
	err := d.getJSON(ctx, "/metrics", &m)
	return m, err
}

// serviceUsage is icid's resource use read from /proc.
func serviceUsage(d *daemon) (cpuS, rssMB float64, err error) {
	if cpuS, err = cpuSeconds(d.pid()); err != nil {
		return 0, 0, err
	}
	rssMB, err = peakRSSMB(strconv.Itoa(d.pid()))
	return cpuS, rssMB, err
}
