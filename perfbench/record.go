package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// machine identifies where and what a result was measured on. The
// comparator refuses to compare results whose machines differ.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD when the run is made inside a git checkout,
	// "none" otherwise; SourceSHA256 digests the Go sources and go.mod
	// files, so it identifies the code either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	// Concurrency is the client and worker parallelism the workload used.
	Concurrency int `json:"concurrency"`
}

// sameHost reports whether two records were measured on the same kind of
// machine with the same toolchain and parallelism.
func (m machine) sameHost(o machine) bool {
	return m.CPUModel == o.CPUModel && m.NumCPU == o.NumCPU && m.GOMAXPROCS == o.GOMAXPROCS &&
		m.GoVersion == o.GoVersion && m.Concurrency == o.Concurrency
}

func machineRecord(root string) machine {
	m := machine{
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "none",
		SourceSHA256: sourceDigest(root),
	}
	// --git-dir keeps git from searching the directories above root.
	if out, err := exec.Command("git", "--git-dir", filepath.Join(root, ".git"), "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// dot-directories (VCS metadata, build outputs).
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// span is one recorded interval. Source says where its timing came from:
// "bench" spans are measured by the benchmark around its own call into a
// layer; "timings" and "status" spans are laid out from figures the program
// exposes (Report.Timings stage wall-clocks, katarad job status
// timestamps).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Source string `json:"source"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Times are nanoseconds
// since the tracer was created. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant into tracer time.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.t0).Nanoseconds() }

// add records a finished span and returns its ID.
func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	if s.Source == "" {
		s.Source = "bench"
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// measure runs f inside a bench span and returns its length.
func (t *tracer) measure(trace, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(span{Trace: trace, Name: name, Start: t.at(start), End: t.at(end)})
	return end.Sub(start)
}

// sequence lays child spans derived from Report.Timings end to end under
// parent, from start, in the order given; zero durations are skipped.
func (t *tracer) sequence(trace string, parent int64, start int64, parts []part) {
	at := start
	for _, p := range parts {
		if p.D <= 0 {
			continue
		}
		id := t.add(span{Parent: parent, Trace: trace, Name: p.Name, Source: "timings", Start: at, End: at + p.D.Nanoseconds()})
		t.sequence(trace, id, at, p.Children)
		at += p.D.Nanoseconds()
	}
}

// part is one derived span for tracer.sequence.
type part struct {
	Name     string
	D        time.Duration
	Children []part
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one row of the traced run's layer table: the layer's time
// metric, the child layer whose time its self time excludes, and its
// counts.
type layerRow struct {
	time, child string
	counts      []string
	// inJob marks the per-job set-up katarad does inside every job run; in
	// the library workloads it is set-up outside the clean.
	inJob bool
}

var layerRows = []layerRow{
	{time: "rdf.clone_s", counts: []string{"rdf.triples"}, inJob: true},
	{time: "katara.newcleaner_s", inJob: true},
	{time: "table.intern_s", counts: []string{"table.signatures"}},
	{time: "discovery.s"},
	{time: "validation.s", counts: []string{"validation.questions"}},
	{time: "annotation.s", counts: []string{"annotation.tuples", "annotation.kb_lookups", "crowd.questions", "resolve.hit_ratio"}},
	{time: "repair.s", child: "repair.index_s", counts: []string{"repair.candidates"}},
	{time: "repair.index_s", counts: []string{"repair.graphs"}},
	{time: "katara.unattributed_s"},
}

// layerTable renders the traced run's per-layer self times, as a share of
// the traced operation (trace.clean_s), with each layer's counts and the
// tracing overhead. The rows sum to trace.clean_s.
func layerTable(workload string, layer map[string]float64) string {
	var b strings.Builder
	total := layer["trace.clean_s"]
	fmt.Fprintf(&b, "layer self times (%s): traced operation %.4f s, tracing overhead %.4f s\n",
		workload, total, layer["trace.overhead_s"])
	fmt.Fprintf(&b, "  %-24s %10s %7s  %s\n", "layer", "self_s", "share", "counts")
	for _, r := range layerRows {
		if r.inJob && workload != "katarad-jobs" {
			continue
		}
		self := layer[r.time] - layer[r.child]
		share := 0.0
		if total != 0 {
			share = 100 * self / total
		}
		var counts []string
		for _, c := range r.counts {
			counts = append(counts, fmt.Sprintf("%s=%.6g", c, layer[c]))
		}
		fmt.Fprintf(&b, "  %-24s %10.4f %6.1f%%  %s\n", r.time, self, share, strings.Join(counts, " "))
	}
	return b.String()
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

const mib = 1 << 20

// heapPoll tracks the heap high-water mark of one timed operation: the
// baseline is read after a forced GC, and a sampler reads the bytes held by
// heap objects every millisecond until finish.
type heapPoll struct {
	base, peak uint64
	stop, done chan struct{}
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapPoll() *heapPoll {
	runtime.GC()
	h := &heapPoll{stop: make(chan struct{}), done: make(chan struct{})}
	h.base = readHeap(heapSample)
	h.peak = h.base
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapSample[0].Name}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.peak = max(h.peak, readHeap(s))
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the high-water mark above the
// baseline in MiB.
func (h *heapPoll) finish() float64 {
	close(h.stop)
	<-h.done
	h.peak = max(h.peak, readHeap(heapSample))
	return float64(h.peak-h.base) / mib
}

// runtimeCounters reads the process's cumulative GC cycles and allocated
// bytes.
func runtimeCounters() (gcs, allocBytes uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// stealWindow measures how much of the machine's CPU demand the hypervisor
// took away over an interval: stolen time over stolen plus busy time, all
// CPUs, from /proc/stat. On a shared virtual machine this share swings
// between 0 and a third within minutes and slows every operation by about
// 1/(1 - share), so the end-to-end timings are wall-clock × (1 - share) of
// the operation's window, with the raw wall-clock kept beside them.
type stealWindow struct{ busy, steal uint64 }

// cpuTicks reads the cumulative busy and stolen clock ticks of all CPUs
// (zero where /proc/stat is unavailable).
func cpuTicks() (busy, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [9]uint64
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseUint(f[i], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return v[1] + v[2] + v[3] + v[6] + v[7], v[8]
}

func startSteal() stealWindow {
	busy, steal := cpuTicks()
	return stealWindow{busy, steal}
}

// share is the stolen share of CPU demand since the window started.
func (w stealWindow) share() float64 {
	busy, steal := cpuTicks()
	db, ds := float64(busy-w.busy), float64(steal-w.steal)
	if db+ds <= 0 {
		return 0
	}
	return ds / (db + ds)
}

// scale multiplies every value by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// digest is a short printable hash of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
