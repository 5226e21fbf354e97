package main

// The serve workloads drive the real `cqa serve` binary over loopback
// HTTP from this one process, through at most nproc connections.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cqa"
)

// requestTimeoutMs is the deadline every request carries (the
// CQA-Timeout-Ms header): a decision the daemon cannot answer in time is
// a failure, not a stall of the whole run.
const requestTimeoutMs = 5000

// openWindow is the window length of the open-loop phase's figures (see
// series).
const openWindow = time.Second

// openGrace bounds how long after its last due time the open-loop phase
// may run before the ops still unsent are counted as failed.
const openGrace = 10 * time.Second

// daemon is one running `cqa serve` process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client  // registration, batches and /metrics
	pool   *connPool     // queries and mutations
	stderr chan struct{} // closed once the stderr reader has finished
}

// startDaemon starts `cqa serve` on a free loopback port and waits until
// it answers /healthz.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s serve: %w", bin, err)
	}
	d := &daemon{cmd: cmd, stderr: make(chan struct{}), client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(), DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stderr)
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, errors.New("cqa serve exited before listening")
		}
		d.base = a
		d.pool = newConnPool(strings.TrimPrefix(a, "http://"), nproc())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("cqa serve did not start listening within 30s")
	}
	for try := 0; ; try++ {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if try == 300 {
			d.stop()
			return nil, fmt.Errorf("cqa serve not healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop terminates the daemon and waits for it and its stderr reader.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	if d.pool != nil {
		d.pool.closeIdle()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // the exit status of a drained daemon is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	<-d.stderr
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// connPool sends the single-decision requests: at most n keep-alive
// connections, each carrying one request at a time, written and read on
// the caller's own goroutine. net/http's Transport hands every request
// to a writer and a reader goroutine of its connection; on a two-core
// machine those hand-offs add scheduler wake-ups, and their jitter, to
// every latency the benchmark times.
type connPool struct {
	addr  string
	conns chan *rawConn // n slots; nil until the slot first dials
}

type rawConn struct {
	c  net.Conn
	br *bufio.Reader
}

func newConnPool(addr string, n int) *connPool {
	p := &connPool{addr: addr, conns: make(chan *rawConn, n)}
	for range n {
		p.conns <- nil
	}
	return p
}

// do sends one request, waiting for a free connection, and returns the
// response's status and body. A connection that failed is closed and its
// slot dials again on next use.
func (p *connPool) do(method, path string, body []byte) (int, []byte, error) {
	rc := <-p.conns
	status, out, err := p.roundTrip(&rc, method, path, body)
	if err != nil && rc != nil {
		rc.c.Close()
		rc = nil
	}
	p.conns <- rc
	return status, out, err
}

func (p *connPool) roundTrip(rc **rawConn, method, path string, body []byte) (int, []byte, error) {
	if *rc == nil {
		c, err := net.Dial("tcp", p.addr)
		if err != nil {
			return 0, nil, err
		}
		*rc = &rawConn{c: c, br: bufio.NewReader(c)}
	}
	c := *rc
	var req bytes.Buffer
	fmt.Fprintf(&req, "%s %s HTTP/1.1\r\nHost: %s\r\nCQA-Timeout-Ms: %d\r\n", method, path, p.addr, requestTimeoutMs)
	if body != nil {
		fmt.Fprintf(&req, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	req.WriteString("\r\n")
	req.Write(body)
	if err := c.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		c.c.Close()
		*rc = nil
	}
	return resp.StatusCode, out, err
}

// closeIdle closes the pool's connections; slots dial again on next
// use. It must not race with do.
func (p *connPool) closeIdle() {
	for range cap(p.conns) {
		if rc := <-p.conns; rc != nil {
			rc.c.Close()
		}
		p.conns <- nil
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // draining lets the connection be reused
	resp.Body.Close()
}

func (d *daemon) do(method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, d.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("CQA-Timeout-Ms", strconv.Itoa(requestTimeoutMs))
	return d.client.Do(req)
}

func factText(facts []cqa.Fact) string {
	var b strings.Builder
	for _, f := range facts {
		b.WriteString(f.String())
		b.WriteByte(' ')
	}
	return b.String()
}

func (d *daemon) register(in Inst) error {
	resp, err := d.do("POST", "/instances/"+in.Name, strings.NewReader(factText(in.Facts)))
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("register %s: %s: %s", in.Name, resp.Status, b)
	}
	return nil
}

// decision is one wire response of the query and batch endpoints.
type decision struct {
	Index   int    `json:"index"`
	Certain *bool  `json:"certain"`
	Error   string `json:"error"`
}

func (d *daemon) query(inst, word string) (bool, error) {
	status, body, err := d.pool.do("GET", "/instances/"+inst+"/query?q="+url.QueryEscape(word), nil)
	if err != nil {
		return false, err
	}
	var dec decision
	if err := json.Unmarshal(body, &dec); err != nil {
		return false, fmt.Errorf("status %d: %w", status, err)
	}
	if status != http.StatusOK || dec.Error != "" || dec.Certain == nil {
		return false, fmt.Errorf("status %d: %s", status, dec.Error)
	}
	return *dec.Certain, nil
}

func (d *daemon) mutate(inst string, add, del []cqa.Fact) error {
	toks := func(fs []cqa.Fact) []string {
		out := []string{}
		for _, f := range fs {
			out = append(out, f.String())
		}
		return out
	}
	req, err := json.Marshal(map[string][]string{"add": toks(add), "remove": toks(del)})
	if err != nil {
		return err
	}
	status, body, err := d.pool.do("POST", "/instances/"+inst+"/mutate", req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("mutate: status %d: %s", status, body)
	}
	return nil
}

// batch streams words as one NDJSON batch and returns the decisions in
// request order; a missing response line is an error for that line.
func (d *daemon) batch(inst string, words []string) ([]decision, error) {
	resp, err := d.do("POST", "/instances/"+inst+"/batch", strings.NewReader(strings.Join(words, "\n")+"\n"))
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("batch: %s", resp.Status)
	}
	out := make([]decision, len(words))
	got := make([]bool, len(words))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var dec decision
		if err := json.Unmarshal(sc.Bytes(), &dec); err != nil {
			return nil, err
		}
		if dec.Index >= 1 && dec.Index <= len(words) {
			out[dec.Index-1], got[dec.Index-1] = dec, true
		}
	}
	for i := range got {
		if !got[i] {
			out[i].Error = "missing response line"
		}
	}
	return out, sc.Err()
}

// serveMetrics is the part of /metrics the benchmark reads.
type serveMetrics struct {
	Engine cqa.Stats `json:"engine"`
	Router struct {
		Rejected uint64 `json:"rejected"`
		Shed     uint64 `json:"shed"`
	} `json:"router"`
}

func (d *daemon) metrics() (serveMetrics, error) {
	var m serveMetrics
	resp, err := d.do("GET", "/metrics", nil)
	if err != nil {
		return m, err
	}
	defer drain(resp)
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// serveRun is what one served run measured.
type serveRun struct {
	setup, cold       sample  // seconds, one per set-up repetition
	decide            series  // ms, open-loop queries
	firstAfter        sample  // ms, first query per (instance, word) after a mutation
	mutate            sample  // ms
	dps               float64 // closed-loop decisions per second
	lag               sample  // ms, how late the generator dispatched each op
	service           sample  // ms, from send to response
	closedDecisions   int
	attempted, failed int
	rssMB             float64
	cpuPerOp          float64 // us of daemon CPU per open-loop op
	before, after     serveMetrics
	firstFailure      string
}

func (r *serveRun) fail(err error) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = err.Error()
	}
}

// streamPlan precomputes the per-op facts the open-loop phase needs: the
// ops each op must wait for (a mutation waits for every earlier op on its
// instance, and later ops wait for the mutation's ack), the instance
// version each op observes, and whether a query is the first on its
// (instance, word) after a mutation.
type streamPlan struct {
	deps       [][]int
	version    []int
	final      []int
	firstAfter []bool
}

func planStream(wl *Workload) streamPlan {
	n := len(wl.Ops)
	p := streamPlan{deps: make([][]int, n), firstAfter: make([]bool, n)}
	p.version, p.final = opVersions(wl, n)
	lastMut := make([]int, len(wl.Instances))
	for i := range lastMut {
		lastMut[i] = -1
	}
	since := make([][]int, len(wl.Instances))
	seen := make([]map[int]bool, len(wl.Instances))
	for i, op := range wl.Ops {
		in := op.Inst
		if lastMut[in] >= 0 {
			p.deps[i] = append(p.deps[i], lastMut[in])
		}
		if op.Kind == OpMutate {
			p.deps[i] = append(p.deps[i], since[in]...)
			lastMut[in], since[in], seen[in] = i, nil, map[int]bool{}
			continue
		}
		since[in] = append(since[in], i)
		if seen[in] != nil && !seen[in][op.Word] {
			p.firstAfter[i] = true
			seen[in][op.Word] = true
		}
	}
	return p
}

// setupServe starts a daemon, registers every instance and decides each
// warm-up pair once; it returns the daemon and the set-up and cold-pass
// times.
func setupServe(bin string, wl *Workload, chk *checker, run *serveRun) (*daemon, error) {
	t0 := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	for _, in := range wl.Instances {
		if err := d.register(in); err != nil {
			d.stop()
			return nil, err
		}
	}
	tc := time.Now()
	for _, p := range wl.Warm {
		run.attempted++
		certain, err := d.query(wl.Instances[p[0]].Name, wl.Words[p[1]])
		if err != nil {
			run.fail(err)
			continue
		}
		chk.check(refKey{p[0], 0, p[1]}, certain)
	}
	run.cold = append(run.cold, time.Since(tc).Seconds())
	run.setup = append(run.setup, time.Since(t0).Seconds())
	return d, nil
}

// runServe runs a serve workload against `cqa serve`: reps set-ups (the
// daemons of all but the last are stopped), then the open-loop phase and
// the closed-loop phase on the last daemon.
func runServe(bin string, wl *Workload, reps int, chk *checker, sp streamPlan) (*serveRun, error) {
	// The generator's own collections must not stall the ops it times.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	run := &serveRun{}
	var d *daemon
	for rep := 0; rep < reps; rep++ {
		var err error
		if d, err = setupServe(bin, wl, chk, run); err != nil {
			return nil, err
		}
		if rep < reps-1 {
			d.stop()
		}
	}
	defer d.stop()
	var err error
	if run.before, err = d.metrics(); err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	// CPU is charged to the open-loop phase only: its op mix is fixed by
	// the seed, while the closed loop completes more or fewer of its cheap
	// batch decisions as the machine is faster or slower.
	// Each phase holds at most nproc connections: the open loop those of
	// the pool, the closed loop those of the HTTP client.
	d.client.CloseIdleConnections()
	if err := runOpen(d, wl, chk, sp, run); err != nil {
		return nil, err
	}
	d.pool.closeIdle()
	cpu1, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	run.cpuPerOp = (cpu1 - cpu0) * 1e6 / float64(len(wl.Ops))
	runClosed(d, wl, chk, sp, run)
	if run.after, err = d.metrics(); err != nil {
		return nil, err
	}
	if run.rssMB, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	return run, nil
}

// runOpen sends the op stream on its Poisson schedule. A dispatcher
// starts each op at its due time on a goroutine of its own, which waits
// for the ops it depends on and then sends it; the connection pool
// holds at most nproc connections, so ops beyond that wait for one. An op
// waiting for a dependency therefore holds no connection. Every latency
// is measured from the due time, so a stall also charges the ops queued
// behind it.
func runOpen(d *daemon, wl *Workload, chk *checker, sp streamPlan, run *serveRun) error {
	timer, err := newKernelTimer()
	if err != nil {
		return err
	}
	defer timer.close()
	n := len(wl.Ops)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	lat := make([]time.Duration, n)
	lag := make([]time.Duration, n)
	svc := make([]time.Duration, n) // send to response: the wait for a connection, not for a dependency
	errs := make([]error, n)
	got := make([]bool, n)
	start := time.Now()
	hardStop := start.Add(wl.OpenFor + openGrace)
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		defer close(done[i])
		for _, dep := range sp.deps[i] {
			<-done[dep]
		}
		op := wl.Ops[i]
		name := wl.Instances[op.Inst].Name
		sent := time.Now()
		if sent.After(hardStop) {
			errs[i] = errors.New("not sent: open-loop phase over")
		} else if op.Kind == OpMutate {
			errs[i] = d.mutate(name, op.Add, op.Del)
		} else {
			got[i], errs[i] = d.query(name, wl.Words[op.Word])
		}
		lat[i] = time.Since(start.Add(op.Due))
		svc[i] = time.Since(sent)
	}
	dispatch := make(chan error, 1)
	go func() {
		defer close(dispatch)
		for i, op := range wl.Ops {
			due := start.Add(op.Due)
			if err := timer.sleepUntil(due); err != nil {
				dispatch <- err
				return
			}
			lag[i] = time.Since(due)
			wg.Add(1)
			go send(i)
		}
	}()
	err = <-dispatch
	wg.Wait()
	if err != nil {
		return err
	}
	for i, op := range wl.Ops {
		run.attempted++
		run.lag = append(run.lag, ms(lag[i]))
		run.service = append(run.service, ms(svc[i]))
		if errs[i] != nil {
			run.fail(errs[i])
			continue
		}
		w := int(op.Due / openWindow)
		if op.Kind == OpMutate {
			run.mutate = append(run.mutate, ms(lat[i]))
			continue
		}
		run.decide.add(w, ms(lat[i]))
		if sp.firstAfter[i] {
			run.firstAfter = append(run.firstAfter, ms(lat[i]))
		}
		chk.check(refKey{op.Inst, sp.version[i], op.Word}, got[i])
	}
	return nil
}

// runClosed runs the closed-loop phase: one NDJSON batch stream per
// connection, each cycling through its batch list until the phase ends.
func runClosed(d *daemon, wl *Workload, chk *checker, sp streamPlan, run *serveRun) {
	type outcome struct {
		batch int
		decs  []decision
		err   error
		end   time.Duration // completion, from the start of the phase
	}
	results := make([][]outcome, len(wl.Streams))
	start := time.Now()
	deadline := start.Add(wl.ClosedFor)
	var wg sync.WaitGroup
	for s, stream := range wl.Streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; time.Now().Before(deadline); b++ {
				bt := stream[b%len(stream)]
				ws := make([]string, len(bt.Words))
				for k, w := range bt.Words {
					ws[k] = wl.Words[w]
				}
				decs, err := d.batch(wl.Instances[bt.Inst].Name, ws)
				results[s] = append(results[s], outcome{b % len(stream), decs, err, time.Since(start)})
			}
		}()
	}
	wg.Wait()
	var last time.Duration
	for s, rs := range results {
		for _, o := range rs {
			last = max(last, o.end)
			bt := wl.Streams[s][o.batch]
			for k, w := range bt.Words {
				run.attempted++
				if o.err != nil {
					run.fail(o.err)
					continue
				}
				dec := o.decs[k]
				if dec.Error != "" || dec.Certain == nil {
					run.fail(fmt.Errorf("batch line: %s", dec.Error))
					continue
				}
				run.closedDecisions++
				chk.check(refKey{bt.Inst, sp.final[bt.Inst], w}, *dec.Certain)
			}
		}
	}
	run.dps = float64(run.closedDecisions) / last.Seconds()
}

// serveKeys lists every reference answer a serve run can need.
func serveKeys(wl *Workload, sp streamPlan) []refKey {
	var keys []refKey
	for _, p := range wl.Warm {
		keys = append(keys, refKey{p[0], 0, p[1]})
	}
	for i, op := range wl.Ops {
		if op.Kind == OpQuery {
			keys = append(keys, refKey{op.Inst, sp.version[i], op.Word})
			if op.Due < routerLoadFor { // the traced run's router phase
				keys = append(keys, refKey{op.Inst, sp.final[op.Inst], op.Word})
			}
		}
	}
	for _, st := range wl.Streams {
		for _, bt := range st {
			for _, w := range bt.Words {
				keys = append(keys, refKey{bt.Inst, sp.final[bt.Inst], w})
			}
		}
	}
	return keys
}

func warmKeys(wl *Workload) []refKey {
	keys := make([]refKey, len(wl.Warm))
	for i, p := range wl.Warm {
		keys[i] = refKey{p[0], 0, p[1]}
	}
	return keys
}

// logf prints a diagnostic line to standard error.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
