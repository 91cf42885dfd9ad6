// Command perfbench is the repository's benchmark: it generates one
// workload from a seed, runs it against the katara library or a live
// katarad daemon, checks that every output is correct, and prints the
// metrics as the last line of standard output.
//
//	perfbench -workload person-batch -seed 1 -seconds 30 -trace 0
//	perfbench compare -parent DIR -change DIR
//
// With -trace 0 the last line carries the end-to-end metrics; with -trace 1
// a separate traced run carries the per-layer metrics, and the spans the
// benchmark recorded around its calls into each layer are written as JSONL
// next to the result file. bash perfbench/run.sh builds the benchmark and
// katarad from source and passes -root and -katarad; README.md lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// e2eUnits are the end-to-end metrics every workload reports with -trace 0
// (BENCHMARK.json "end_to_end"; README.md gives each one's meaning per
// workload).
var e2eUnits = []metricDef{
	{"setup_s", "s"},
	{"clean_s", "s"},
	{"op_p50_s", "s"},
	{"crowd_questions", "count"},
	{"peak_mem_mib", "MiB"},
}

// layerUnits are the per-layer metrics every workload reports with
// -trace 1 (BENCHMARK.json "per_layer"). A layer that does not run on a
// workload reports 0.
var layerUnits = []metricDef{
	{"table.intern_s", "s"},
	{"table.signatures", "count"},
	{"discovery.s", "s"},
	{"katara.newcleaner_s", "s"},
	{"validation.s", "s"},
	{"validation.questions", "count"},
	{"annotation.s", "s"},
	{"annotation.tuples", "count"},
	{"annotation.kb_lookups", "count"},
	{"annotation.new_facts", "count"},
	{"annotation.tuple_p50_ns", "ns"},
	{"annotation.tuple_p99_ns", "ns"},
	{"crowd.questions", "count"},
	{"crowd.questions_deduped", "count"},
	{"resolve.hits", "count"},
	{"resolve.misses", "count"},
	{"resolve.hit_ratio", "ratio"},
	{"repair.s", "s"},
	{"repair.index_s", "s"},
	{"repair.graphs", "count"},
	{"repair.candidates", "count"},
	{"repair.topk_p99_ns", "ns"},
	{"repair.precision", "ratio"},
	{"repair.recall", "ratio"},
	{"rdf.clone_s", "s"},
	{"rdf.triples", "count"},
	{"katara.shard_speedup", "ratio"},
	{"katara.unattributed_s", "s"},
	{"katara.session_open_s", "s"},
	{"katara.session_drifts", "count"},
	{"katara.append_fast_p50_s", "s"},
	{"katara.reclean_s", "s"},
	{"katara.chain_s", "s"},
	{"katara.chain_questions", "count"},
	{"jobs.submit_ack_p50_s", "s"},
	{"jobs.queue_wait_p50_s", "s"},
	{"jobs.queue_wait_p95_s", "s"},
	{"jobs.run_p50_s", "s"},
	{"jobs.run_p95_s", "s"},
	{"jobs.latency_p95_s", "s"},
	{"jobs.send_lag_p95_s", "s"},
	{"jobs.closed_per_s", "1/s"},
	{"jobs.rejected", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mib", "MiB"},
	{"trace.clean_s", "s"},
	{"trace.overhead_s", "s"},
}

type metricDef struct{ Name, Unit string }

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*outcome, error){
	"person-batch": runPersonBatch,
	"append-chain": runAppendChain,
	"katarad-jobs": runKataradJobs,
}

// config is one run's settings.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Size scales the generated inputs: "paper" (the benchmark) or "tiny"
	// (the benchmark's own tests).
	Size    string
	Root    string
	Katarad string
	Out     string
	log     io.Writer
}

// outcome is what a workload measured.
type outcome struct {
	Attempted int
	Failed    int
	// Mismatches describes each failed correctness check.
	Mismatches []string
	// E2E holds the end-to-end values, Layer the per-layer ones (filled
	// only by a traced run), Detail the workload's own unbounded figures
	// (append_p50_s, chain_s, job_p95_s, ...) printed and stored with the
	// result.
	E2E    map[string]float64
	Layer  map[string]float64
	Detail map[string]float64
	// Samples keeps the per-operation figures behind the medians.
	Samples map[string][]float64
	// Concurrency is the client/worker parallelism of the run.
	Concurrency int
	tr          *tracer
}

func newOutcome() *outcome {
	return &outcome{E2E: map[string]float64{}, Layer: map[string]float64{}, Detail: map[string]float64{}, Samples: map[string][]float64{}}
}

// fail records one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Mismatches) < 20 {
		o.Mismatches = append(o.Mismatches, fmt.Sprintf(format, args...))
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{log: stderr}
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload: person-batch, append-chain or katarad-jobs")
	fs.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 30, "measurement time")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.Size, "size", "paper", "input size: paper or tiny")
	fs.StringVar(&cfg.Root, "root", "..", "repository root")
	fs.StringVar(&cfg.Katarad, "katarad", "", "katarad binary (katarad-jobs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = trace == 1
	runner, ok := workloads[cfg.Workload]
	if !ok || (trace != 0 && trace != 1) || cfg.Seconds <= 0 || (cfg.Size != "paper" && cfg.Size != "tiny") {
		fmt.Fprintln(stderr, "perfbench: need -workload person-batch|append-chain|katarad-jobs, -trace 0|1, -seconds > 0, -size paper|tiny")
		return 2
	}
	cfg.Out = filepath.Join(cfg.Root, ".bench_build", "results")
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	mach := machineRecord(cfg.Root)
	start := time.Now()
	o, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	mach.Concurrency = o.Concurrency
	res := buildResult(cfg, mach, o)
	res.WallS = time.Since(start).Seconds()
	if err := writeResult(cfg, res, o); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printSummary(stdout, res, o)
	line, err := json.Marshal(resultLine{
		Correct:   res.Correct,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   res.Metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run's stored record: the result line plus the machine, the
// workload's detail figures and the correctness mismatches.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Size       string                 `json:"size"`
	Machine    machine                `json:"machine"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Metrics    map[string]metricValue `json:"metrics"`
	Detail     map[string]float64     `json:"detail"`
	Samples    map[string][]float64   `json:"samples"`
	Mismatches []string               `json:"mismatches,omitempty"`
	WallS      float64                `json:"wall_s"`
}

func buildResult(cfg *config, mach machine, o *outcome) *result {
	res := &result{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Size: cfg.Size,
		Machine: mach, Attempted: o.Attempted, Failed: o.Failed, Detail: o.Detail, Samples: o.Samples,
		Mismatches: o.Mismatches, Metrics: map[string]metricValue{},
	}
	if res.Attempted < 1 {
		// A run that attempted nothing cannot vouch for anything.
		res.Attempted, res.Failed = 1, 1
		res.Mismatches = append(res.Mismatches, "no operation completed")
	}
	res.Correct = res.Failed == 0
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	defs, vals := e2eUnits, o.E2E
	if cfg.Trace {
		defs, vals = layerUnits, o.Layer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// writeResult stores the run's record (and, when traced, its spans and the
// layer table) under cfg.Out.
func writeResult(cfg *config, res *result, o *outcome) error {
	kind := "e2e"
	if cfg.Trace {
		kind = "trace"
	}
	base := filepath.Join(cfg.Out, fmt.Sprintf("%s-%s-seed%d", cfg.Workload, kind, cfg.Seed))
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !cfg.Trace || o.tr == nil {
		return nil
	}
	if err := o.tr.writeJSONL(base + "-spans.jsonl"); err != nil {
		return err
	}
	return os.WriteFile(base+"-layers.txt", []byte(layerTable(cfg.Workload, o.Layer)), 0o644)
}

// printSummary writes the human-readable lines that precede the result line.
func printSummary(w io.Writer, res *result, o *outcome) {
	m := res.Machine
	fmt.Fprintf(w, "machine: %s, NumCPU %d, GOMAXPROCS %d, %s, commit %s, source %s, concurrency %d\n",
		m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Commit, m.SourceSHA256[:12], m.Concurrency)
	fmt.Fprintf(w, "workload %s seed %d: %d attempted, %d failed (failed_frac %.4f)\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, res.FailedFrac)
	for _, mm := range res.Mismatches {
		fmt.Fprintf(w, "  FAILED: %s\n", mm)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if len(res.Detail) > 0 {
		var parts []string
		for n, v := range res.Detail {
			parts = append(parts, fmt.Sprintf("%s=%.6g", n, v))
		}
		sort.Strings(parts)
		fmt.Fprintf(w, "  detail: %s\n", strings.Join(parts, " "))
	}
	if res.Trace {
		fmt.Fprint(w, layerTable(res.Workload, o.Layer))
	}
}
