package main

// The daemon workloads drive a real schedd process built from the tree,
// started in the configuration an operator gets by default: only an
// address and a journal directory on the command line, so audit on, fsync
// off, easy/FCFS on 128 processors at -speed 1.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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
	"sync"
	"syscall"
	"time"
)

const (
	// scheddGOMAXPROCS pins the daemon to one core so the load generator
	// keeps the other one of a two-core machine.
	scheddGOMAXPROCS = 1
	daemonProcs      = 128
	// clientTimeout bounds every request the generator makes: a thousand
	// times the slowest tail the daemon workloads see.
	clientTimeout = 10 * time.Second
	readyTimeout  = 90 * time.Second
)

// buildSchedd compiles cmd/schedd from the tree into dir.
func buildSchedd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "schedd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/schedd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build schedd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running schedd process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	dead chan struct{} // closed once the process has been reaped
	exit error         // valid once dead is closed
	logs *syncBuffer   // everything the daemon printed, for diagnostics
}

// children is every daemon still running, so each exit path can kill them.
var children = struct {
	sync.Mutex
	set map[*daemon]struct{}
}{set: map[*daemon]struct{}{}}

func killChildren() {
	children.Lock()
	ds := make([]*daemon, 0, len(children.set))
	for d := range children.set {
		ds = append(ds, d)
	}
	children.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// startDaemon spawns schedd on a free loopback port with journal dir,
// waits for its ready line and takes the URL from it. It returns how long
// the daemon took from spawn to ready.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(scheddGOMAXPROCS))
	logs := &syncBuffer{}
	cmd.Stderr = logs
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start schedd: %w", err)
	}
	d := &daemon{cmd: cmd, dead: make(chan struct{}), logs: logs}
	children.Lock()
	children.set[d] = struct{}{}
	children.Unlock()
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			logs.Write([]byte(line + "\n"))
			if _, after, ok := strings.Cut(line, "listening on "); ok {
				select {
				case urlc <- strings.TrimSpace(after):
				default:
				}
			}
		}
	}()
	go func() {
		d.exit = cmd.Wait()
		close(d.dead)
	}()
	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	select {
	case d.url = <-urlc:
		return d, time.Since(t0), nil
	case <-d.dead:
		d.kill()
		return nil, 0, fmt.Errorf("schedd exited before ready: %v\n%s", d.exit, logs.String())
	case <-timer.C:
		d.kill()
		return nil, 0, fmt.Errorf("schedd not ready after %s\n%s", readyTimeout, logs.String())
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
}

// kill SIGKILLs the daemon and waits until it has been reaped, so its
// journal lock is free. Killing a dead daemon returns at once.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.dead
	children.Lock()
	delete(children.set, d)
	children.Unlock()
}

// cpuTime is the daemon's user plus system CPU time so far, all threads.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times: 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// syncBuffer is a bytes.Buffer safe for the two goroutines that write a
// daemon's output into it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// newConn returns a client that holds at most one keep-alive connection:
// each load-generator worker owns one, so the daemon sees exactly as many
// connections as there are workers.
func newConn() *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// submitReq is the POST /v1/jobs body.
type submitReq struct {
	Width    int   `json:"width"`
	Runtime  int64 `json:"runtime"`
	Estimate int64 `json:"estimate,omitempty"`
	User     int   `json:"user,omitempty"`
}

// submit posts one job and returns its ID. Anything but 201 with a
// decodable ID is a failure.
func submit(c *http.Client, url string, r submitReq) (int, error) {
	body, _ := json.Marshal(r)
	resp, err := c.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v struct {
		ID int `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	if resp.StatusCode != http.StatusCreated {
		return 0, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil || v.ID <= 0 {
		return 0, fmt.Errorf("submit: bad response body: %v", err)
	}
	return v.ID, nil
}

// cancelJob deletes one job; only 204 counts as success.
func cancelJob(c *http.Client, url string, id int) error {
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+strconv.Itoa(id), nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("cancel %d: HTTP %d", id, resp.StatusCode)
	}
	return nil
}

// get fetches path and returns the body of a 200 response.
func get(c *http.Client, url, path string) ([]byte, error) {
	resp, err := c.Get(url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, nil
}

// gauge reads one unlabelled sample from a Prometheus exposition body.
func gauge(body []byte, name string) (int64, error) {
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// queueIDs decodes a GET /v1/queue body into its queued job IDs.
func queueIDs(body []byte) ([]int, error) {
	var q struct {
		Queued []struct {
			ID int `json:"id"`
		} `json:"queued"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		return nil, fmt.Errorf("decode /v1/queue: %w", err)
	}
	ids := make([]int, len(q.Queued))
	for i, j := range q.Queued {
		ids[i] = j.ID
	}
	return ids, nil
}

// durability reads GET /v1/debug/durability: the live state hash and
// whether boot replayed a journal.
func durability(c *http.Client, url string) (hash string, recovered bool, err error) {
	b, err := get(c, url, "/v1/debug/durability")
	if err != nil {
		return "", false, err
	}
	var info struct {
		StateHash string `json:"state_hash"`
		Recovery  *struct {
			CheckpointOps int `json:"checkpoint_ops"`
			TailRecords   int `json:"tail_records"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal(b, &info); err != nil {
		return "", false, err
	}
	r := info.Recovery
	return info.StateHash, r != nil && (r.CheckpointOps > 0 || r.TailRecords > 0), nil
}

// errWrong marks a 200 reply that described the wrong thing: an output
// error, not only a failed op. Transport errors and unexpected statuses
// are failed ops only.
var errWrong = errors.New("wrong answer")

// checkJob reads one job and requires the response to describe it.
func checkJob(c *http.Client, url string, id int) error {
	b, err := get(c, url, "/v1/jobs/"+strconv.Itoa(id))
	if err != nil {
		return err
	}
	var v struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("%w: GET job %d: %v", errWrong, id, err)
	}
	if v.ID != id {
		return fmt.Errorf("%w: GET job %d answered job %d", errWrong, id, v.ID)
	}
	return nil
}
