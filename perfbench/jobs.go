package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"katara"
	"katara/internal/jobs"
	"katara/internal/workload"
	"katara/internal/world"
)

// openLoopRate is phase A's fixed send rate in jobs per second: about half
// the closed-loop capacity phase B measures with two clients on a 2-CPU
// machine.
const openLoopRate = 5.0

// jobInput is the katarad-jobs workload's data: the Yago-like KB and the
// WikiTables and WebTables tables cmd/kbgen writes with its defaults
// (world seed 2015), as submit payloads.
type jobInput struct {
	kbPath   string
	names    []string
	payloads [][]byte
}

func newJobInput(cfg *config) (*jobInput, error) {
	const seed = 2015
	w := world.New(seed, world.Config{})
	kb := workload.YagoLike(w, seed+101)
	dir := filepath.Join(cfg.Root, ".bench_build", "data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &jobInput{kbPath: filepath.Join(dir, "yago.nt")}
	var buf bytes.Buffer
	if err := kb.Store.WriteNTriples(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.kbPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var specs []*workload.TableSpec
	specs = append(specs, workload.WikiTables(w, seed+201).Specs...)
	specs = append(specs, workload.WebTables(w, seed+202).Specs...)
	if cfg.Size == "tiny" {
		specs = specs[:4]
	}
	for _, s := range specs {
		t := s.Table
		b, err := json.Marshal(jobs.SubmitRequest{Table: jobs.TableDoc{Name: t.Name, Columns: t.Columns, Rows: t.Rows}})
		if err != nil {
			return nil, err
		}
		in.names = append(in.names, t.Name)
		in.payloads = append(in.payloads, b)
	}
	return in, nil
}

// daemon is one running katarad process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// done is closed once the process has exited and been reaped.
	done chan struct{}
}

// newClient returns an HTTP client that holds at most one connection, so
// the benchmark opens one connection per client it runs.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon execs katarad with a fresh journal directory and returns once
// /healthz answers, with the time that took.
func startDaemon(cfg *config, kbPath, journal string, workers int) (*daemon, time.Duration, error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	if err := os.RemoveAll(journal); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	cmd := exec.Command(cfg.Katarad, "-kb", kbPath, "-listen", addr,
		"-max-concurrent", strconv.Itoa(workers), "-max-queue", "64",
		"-journal-dir", journal, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = io.Discard, cfg.log
	// The daemon must not outlive the benchmark, even when the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start katarad: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.done:
			return nil, 0, errors.New("katarad exited before answering /healthz")
		default:
		}
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, 0, errors.New("katarad did not answer /healthz within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (graceful drain) and waits for the process to exit,
// killing it after 20s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// rssMiB reads the process's resident set size.
func rssMiB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// jobRecord is one job's timeline.
type jobRecord struct {
	table     int
	id        string
	scheduled time.Time // when the job was due to be sent
	sent      time.Time
	acked     time.Time
	status    jobs.JobStatus
}

// submit POSTs a payload, retrying 429/503 with backoff up to five times.
func submit(c *http.Client, base string, payload []byte, rejected *atomic.Int64) (string, error) {
	backoff := 20 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(payload))
		if err != nil {
			return "", err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var sub jobs.SubmitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				return "", fmt.Errorf("submit response: %w", err)
			}
			return sub.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected.Add(1)
			if attempt == 4 {
				return "", fmt.Errorf("submit still refused after retry: status %d", resp.StatusCode)
			}
			time.Sleep(backoff)
			backoff *= 2
		default:
			return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, body)
		}
	}
}

// getJSON GETs path into v, returning the status code.
func getJSON(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusOK && v != nil {
		return resp.StatusCode, json.Unmarshal(body, v)
	}
	return resp.StatusCode, nil
}

// await polls a job until it is terminal.
func await(c *http.Client, base, id string) (jobs.JobStatus, error) {
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st jobs.JobStatus
		if _, err := getJSON(c, base+"/jobs/"+id, &st); err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s not terminal after 120s", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// resultDoc fetches a finished job's deterministic result: the report and
// audit sub-documents (the job ID is left out).
func resultDoc(c *http.Client, base, id string) ([]byte, int, error) {
	var res jobs.ResultDoc
	code, err := getJSON(c, base+"/jobs/"+id+"/result", &res)
	if err != nil {
		return nil, 0, err
	}
	if code != http.StatusOK {
		return nil, 0, fmt.Errorf("result of %s: status %d", id, code)
	}
	if res.State != jobs.StateDone || res.Report == nil {
		return nil, 0, fmt.Errorf("job %s ended %s: %s", id, res.State, res.Error)
	}
	b, err := json.Marshal(struct {
		Report *jobs.ReportDoc         `json:"report"`
		Audit  *katara.ProvenanceAudit `json:"audit"`
	}{res.Report, res.Audit})
	return b, res.Report.QuestionsAsked, err
}

// jobRun is the shared state of one katarad-jobs run.
type jobRun struct {
	in       *jobInput
	d        *daemon
	o        *outcome
	mu       sync.Mutex
	ref      map[int][]byte
	rejected atomic.Int64
}

// finish checks a terminal job against the table's reference result.
func (r *jobRun) finish(c *http.Client, rec *jobRecord) bool {
	if rec.status.State != jobs.StateDone {
		r.mu.Lock()
		r.o.Attempted++
		r.o.fail("job %s (%s) ended %s: %s", rec.id, r.in.names[rec.table], rec.status.State, rec.status.Error)
		r.mu.Unlock()
		return false
	}
	doc, _, err := resultDoc(c, r.d.base, rec.id)
	if err == nil {
		err = checkJob(r.ref[rec.table], doc)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.o.Attempted++
	if err != nil {
		r.o.fail("job %s (%s): %v", rec.id, r.in.names[rec.table], err)
		return false
	}
	return true
}

// runKataradJobs is the katarad-jobs workload: a live katarad (Yago-like
// KB, journal with fsync, GOMAXPROCS workers) takes the 58 WikiTables and
// WebTables tables as POST /jobs in a seeded order. A reference pass
// submits every table once; phase A then sends at openLoopRate jobs/s for
// 60% of the measurement time (open loop), phase B runs one closed-loop
// client per CPU for the rest. Every job's result must be byte-identical to
// the reference result of its table.
func runKataradJobs(cfg *config) (*outcome, error) {
	if cfg.Katarad == "" {
		return nil, errors.New("katarad-jobs needs -katarad")
	}
	in, err := newJobInput(cfg)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	o := newOutcome()
	o.Concurrency = workers
	if cfg.Trace {
		o.tr = newTracer()
	}
	journal := filepath.Join(cfg.Root, ".bench_build", "tmp", fmt.Sprintf("journal-%d", os.Getpid()))
	defer os.RemoveAll(journal)

	// Set-up: exec until /healthz answers, three times, steal-adjusted over
	// the three; the last daemon stays up for the measurement.
	var setups []float64
	var d *daemon
	sw := startSteal()
	for i := 0; i < 3; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		d, took, err = startDaemon(cfg, in.kbPath, journal, workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()
	setups = scale(setups, 1-sw.share())
	r := &jobRun{in: in, d: d, o: o, ref: map[int][]byte{}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var order []int
	next := func() int {
		if len(order) == 0 {
			order = rng.Perm(len(in.payloads))
		}
		t := order[0]
		order = order[1:]
		return t
	}

	// Reference pass: every table once, in the seeded order.
	c := newClient()
	questions := 0
	for _, t := range rng.Perm(len(in.payloads)) {
		id, err := submit(c, d.base, in.payloads[t], &r.rejected)
		if err != nil {
			return nil, fmt.Errorf("reference submit of %s: %w", in.names[t], err)
		}
		if _, err := await(c, d.base, id); err != nil {
			return nil, err
		}
		doc, q, err := resultDoc(c, d.base, id)
		if err != nil {
			return nil, fmt.Errorf("reference result of %s: %w", in.names[t], err)
		}
		r.ref[t] = doc
		questions += q
	}
	metrics0, err := scrapeMetrics(c, d.base)
	if err != nil {
		return nil, err
	}

	var peakRSS float64
	stopRSS := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			peakRSS = max(peakRSS, rssMiB(d.cmd.Process.Pid))
			select {
			case <-stopRSS:
				return
			case <-tick.C:
			}
		}
	}()

	total := time.Duration(cfg.Seconds * float64(time.Second))
	sw = startSteal()
	phaseA := r.openLoop(next, total*6/10)
	stolenA := sw.share()
	sw = startSteal()
	phaseB, perSec := r.closedLoop(next, total*4/10, workers)
	stolenB := sw.share()
	close(stopRSS)
	<-rssDone
	metrics1, err := scrapeMetrics(c, d.base)
	if err != nil {
		return nil, err
	}

	// lat and runs are raw wall-clock; adjLat and adjRuns are steal-adjusted
	// by their phase's stolen share (see stealWindow).
	var lat, adjLat, lag, ack, wait, runs, adjRuns []float64
	for _, j := range phaseA {
		if j.status.FinishedAt == nil {
			continue
		}
		lat = append(lat, j.status.FinishedAt.Sub(j.scheduled).Seconds())
		lag = append(lag, j.sent.Sub(j.scheduled).Seconds())
	}
	adjLat = scale(lat, 1-stolenA)
	done := 0
	for _, ph := range []struct {
		jobs   []*jobRecord
		stolen float64
	}{{phaseA, stolenA}, {phaseB, stolenB}} {
		for _, j := range ph.jobs {
			if j.status.StartedAt == nil || j.status.FinishedAt == nil {
				continue
			}
			done++
			run := j.status.FinishedAt.Sub(*j.status.StartedAt).Seconds()
			ack = append(ack, j.acked.Sub(j.sent).Seconds())
			wait = append(wait, j.status.StartedAt.Sub(j.status.SubmittedAt).Seconds())
			runs = append(runs, run)
			adjRuns = append(adjRuns, run*(1-ph.stolen))
			if cfg.Trace {
				r.jobSpans(j)
			}
		}
	}

	o.E2E["setup_s"] = median(setups)
	o.E2E["clean_s"] = median(adjRuns)
	o.E2E["op_p50_s"] = median(adjLat)
	o.E2E["crowd_questions"] = float64(questions)
	o.E2E["peak_mem_mib"] = peakRSS
	o.Detail["job_run_wall_s"] = median(runs)
	o.Detail["job_p50_s"] = median(lat)
	o.Detail["job_p95_s"] = quantile(lat, 0.95)
	o.Detail["jobs_per_s"] = perSec
	o.Detail["steal_share"] = (stolenA + stolenB) / 2
	o.Detail["open_loop_rate"] = openLoopRate
	o.Samples["job_latency_s"] = adjLat
	o.Samples["job_run_s"] = adjRuns
	o.Samples["job_latency_wall_s"] = lat
	o.Samples["job_run_wall_s"] = runs
	o.Samples["setup_s"] = setups
	if !cfg.Trace {
		return o, nil
	}
	o.Layer["jobs.submit_ack_p50_s"] = median(ack)
	o.Layer["jobs.queue_wait_p50_s"] = median(wait)
	o.Layer["jobs.queue_wait_p95_s"] = quantile(wait, 0.95)
	o.Layer["jobs.run_p50_s"] = median(runs)
	o.Layer["jobs.run_p95_s"] = quantile(runs, 0.95)
	o.Layer["jobs.latency_p95_s"] = quantile(lat, 0.95)
	o.Layer["jobs.send_lag_p95_s"] = quantile(lag, 0.95)
	o.Layer["jobs.closed_per_s"] = perSec
	o.Layer["jobs.rejected"] = float64(r.rejected.Load())
	if err := r.kbLayers(); err != nil {
		return nil, err
	}
	// Per job: the daemon's stage sums and counters over the two phases.
	per := func(name string) float64 { return (metrics1[name] - metrics0[name]) / float64(max(done, 1)) }
	stage := func(s string) float64 { return per(`katara_stage_duration_seconds_total{stage="` + s + `"}`) }
	o.Layer["discovery.s"] = stage("discover")
	o.Layer["validation.s"] = stage("validate")
	o.Layer["annotation.s"] = stage("annotate")
	o.Layer["repair.index_s"] = stage("build-index")
	o.Layer["repair.s"] = stage("repair")
	o.Layer["annotation.tuples"] = per("katara_tuples_annotated_total")
	o.Layer["annotation.kb_lookups"] = per("katara_kb_lookups_total")
	o.Layer["crowd.questions"] = per("katara_crowd_questions_total")
	o.Layer["crowd.questions_deduped"] = per("katara_crowd_questions_deduped_total")
	o.Layer["resolve.hits"] = per("katara_resolver_hits_total")
	o.Layer["resolve.misses"] = per("katara_resolver_misses_total")
	if h, m := o.Layer["resolve.hits"], o.Layer["resolve.misses"]; h+m > 0 {
		o.Layer["resolve.hit_ratio"] = h / (h + m)
	}
	o.Layer["repair.graphs"] = per("katara_graphs_enumerated_total")
	o.Layer["repair.candidates"] = per("katara_repairs_generated_total")
	// A job's run is its KB clone, NewCleaner and the pipeline stages; the
	// rest of the mean run time is unattributed.
	mean := 0.0
	for _, x := range runs {
		mean += x
	}
	mean /= float64(max(len(runs), 1))
	o.Layer["trace.clean_s"] = mean
	o.Layer["katara.unattributed_s"] = mean - (o.Layer["rdf.clone_s"] + o.Layer["katara.newcleaner_s"] +
		o.Layer["discovery.s"] + o.Layer["validation.s"] + o.Layer["annotation.s"] + o.Layer["repair.s"])
	return o, nil
}

// openLoop sends one job every 1/openLoopRate seconds for dur on one
// connection while a second connection polls the outstanding jobs, and
// returns every job it sent.
func (r *jobRun) openLoop(next func() int, dur time.Duration) []*jobRecord {
	interval := time.Duration(float64(time.Second) / openLoopRate)
	n := int(dur / interval)
	sent := make(chan *jobRecord, n)
	var out []*jobRecord
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newClient()
		var pending []*jobRecord
		in := sent
		for in != nil || len(pending) > 0 {
			if len(pending) == 0 {
				// Nothing to poll: block for the next send.
				j, ok := <-in
				if !ok {
					in = nil
				} else {
					pending = append(pending, j)
				}
				continue
			}
			select {
			case j, ok := <-in:
				if !ok {
					in = nil
				} else {
					pending = append(pending, j)
				}
				continue
			default:
			}
			j := pending[0]
			pending = pending[1:]
			var st jobs.JobStatus
			if _, err := getJSON(c, r.d.base+"/jobs/"+j.id, &st); err != nil {
				r.mu.Lock()
				r.o.Attempted++
				r.o.fail("poll %s: %v", j.id, err)
				r.mu.Unlock()
				continue
			}
			if !st.State.Terminal() {
				pending = append(pending, j)
				time.Sleep(2 * time.Millisecond)
				continue
			}
			j.status = st
			r.finish(c, j)
			out = append(out, j)
		}
	}()
	c := newClient()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		j := &jobRecord{table: next(), scheduled: t0.Add(time.Duration(i) * interval)}
		time.Sleep(time.Until(j.scheduled))
		j.sent = time.Now()
		id, err := submit(c, r.d.base, r.in.payloads[j.table], &r.rejected)
		j.acked = time.Now()
		if err != nil {
			r.mu.Lock()
			r.o.Attempted++
			r.o.fail("phase A submit of %s: %v", r.in.names[j.table], err)
			r.mu.Unlock()
			continue
		}
		j.id = id
		sent <- j
	}
	close(sent)
	wg.Wait()
	return out
}

// closedLoop runs clients closed-loop clients for dur: each submits a job,
// waits for it on its own connection, checks the result and sends the next.
// It returns the jobs and the completed jobs per second.
func (r *jobRun) closedLoop(next func() int, dur time.Duration, clients int) ([]*jobRecord, float64) {
	var mu sync.Mutex
	var out []*jobRecord
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	var last time.Time
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			for time.Now().Before(end) {
				mu.Lock()
				j := &jobRecord{table: next()}
				mu.Unlock()
				j.sent = time.Now()
				j.scheduled = j.sent
				id, err := submit(c, r.d.base, r.in.payloads[j.table], &r.rejected)
				j.acked = time.Now()
				if err == nil {
					j.id = id
					j.status, err = await(c, r.d.base, id)
				}
				if err != nil {
					r.mu.Lock()
					r.o.Attempted++
					r.o.fail("phase B job of %s: %v", r.in.names[j.table], err)
					r.mu.Unlock()
					continue
				}
				ok := r.finish(c, j)
				mu.Lock()
				out = append(out, j)
				if ok {
					last = time.Now()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	done := 0
	for _, j := range out {
		if j.status.State == jobs.StateDone {
			done++
		}
	}
	if done == 0 {
		return out, 0
	}
	return out, float64(done) / last.Sub(start).Seconds()
}

// jobSpans records one job's timeline: the job from its due time to its
// end, the submit round trip, and the queue wait and run from the job's
// status timestamps.
func (r *jobRun) jobSpans(j *jobRecord) {
	tr := r.o.tr
	trace := j.id
	root := tr.add(span{Trace: trace, Name: "jobs.job", Start: tr.at(j.scheduled), End: tr.at(*j.status.FinishedAt)})
	tr.add(span{Parent: root, Trace: trace, Name: "jobs.submit", Start: tr.at(j.sent), End: tr.at(j.acked)})
	tr.add(span{Parent: root, Trace: trace, Name: "jobs.queue", Source: "status", Start: tr.at(j.status.SubmittedAt), End: tr.at(*j.status.StartedAt)})
	tr.add(span{Parent: root, Trace: trace, Name: "jobs.run", Source: "status", Start: tr.at(*j.status.StartedAt), End: tr.at(*j.status.FinishedAt)})
}

// kbLayers times, in this process, what every job does to the daemon's KB
// before its pipeline runs: rdf.Store.Clone and NewCleaner on the clone
// (the KB statistics). The KB is loaded from the same file the daemon read.
func (r *jobRun) kbLayers() error {
	f, err := os.Open(r.in.kbPath)
	if err != nil {
		return err
	}
	kb := katara.NewKB()
	_, err = kb.ParseNTriples(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}
	var clones, cleaners []float64
	for i := 0; i < 15; i++ {
		var cp *katara.KB
		d := r.o.tr.measure("kb", "rdf.clone", func() { cp = kb.Clone() })
		clones = append(clones, d.Seconds())
		d = r.o.tr.measure("kb", "katara.newcleaner", func() {
			katara.NewCleaner(cp, katara.TrustingCrowd(), katara.Options{})
		})
		cleaners = append(cleaners, d.Seconds())
	}
	r.o.Layer["rdf.clone_s"] = median(clones)
	r.o.Layer["katara.newcleaner_s"] = median(cleaners)
	r.o.Layer["rdf.triples"] = float64(kb.NumTriples())
	return nil
}

// scrapeMetrics reads /metrics into a map from series (name plus labels) to
// value.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
