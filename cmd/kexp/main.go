// Command kexp regenerates the paper's evaluation: every table (1–7) and
// figure (6, 7, 8, 11, 12) of §7 and the appendices, over the synthetic
// workload described in DESIGN.md.
//
// Usage:
//
//	kexp                              # run everything at the default scale
//	kexp -exp table2,fig6             # selected experiments
//	kexp -scale 1.0 -seed 42          # bigger relational tables, new seed
//
// Experiment names: table1 table2 table3 table4 table5 table6 table7
// fig6 fig7 fig8 fig11 fig12 patterns ablation stats
//
// -stats (or -exp stats) times the end-to-end pipeline per stage with the
// telemetry layer; -workers sizes the worker pool of the parallel stages.
// Diagnostics are structured logs (log/slog); -log-level and -log-json
// control verbosity and format, matching katara and katarad.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"katara"
	"katara/internal/experiments"
	"katara/internal/jobs"
	"katara/internal/kbstats"
	"katara/internal/logging"
	"katara/internal/table"
	"katara/internal/telemetry"
	"katara/internal/workload"
	"katara/internal/world"
)

func main() {
	var (
		expList    = flag.String("exp", "all", "comma-separated experiments to run (all|table1..table7|fig6|fig7|fig8|fig11|fig12|patterns|stats)")
		seed       = flag.Int64("seed", 2015, "master random seed")
		scale      = flag.Float64("scale", 0.2, "RelationalTables scale factor (1.0 = Person 5000 rows)")
		paperScale = flag.Bool("paper-scale", false, "build RelationalTables at the paper's exact row counts (Person 316K) regardless of -scale")
		size       = flag.String("size", "default", "world size: small|default|large")
		maxK       = flag.Int("maxk", 10, "maximum k for top-k curves")
		maxQ       = flag.Int("maxq", 7, "maximum questions-per-variable for validation curves")
		format     = flag.String("format", "table", "figure output: table|chart|csv")
		stats      = flag.Bool("stats", false, "run the pipeline-telemetry experiment (same as -exp stats)")
		statsAll   = flag.Bool("stats-verbose", false, "include zero-valued counters and empty histograms in telemetry output")
		workers    = flag.Int("workers", 0, "worker pool size for the parallel stages (0 or 1 = serial, -1 = GOMAXPROCS)")
		faultRate  = flag.Float64("fault-rate", 0, "per-assignment crowd fault probability for the stats experiment, split across abandonment/transient/spam")
		statsJSON  = flag.String("stats-json", "", "write the cumulative telemetry snapshot as JSON to this file (- = stdout)")
		tracePath  = flag.String("trace", "", "write a JSONL span journal of the instrumented runs to this file")
		listen     = flag.String("listen", "", "serve /metrics, /healthz, /progress and /debug/pprof on this address for the duration of the driver")
		linger     = flag.Duration("linger", 0, "keep the -listen server up this long after the experiments complete")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()

	level, lerr := logging.ParseLevel(*logLevel)
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "kexp:", lerr)
		os.Exit(2)
	}
	log := logging.New(os.Stdout, os.Stderr, level, *logJSON)

	// Same parameter validator as cmd/katara and katarad's submit handler:
	// a fractional-but-negative scale or an impossible worker count is a
	// usage error, not a silently empty experiment.
	params := jobs.Params{Workers: *workers, Scale: *scale, FaultRate: *faultRate}
	if err := params.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "kexp:", err)
		os.Exit(2)
	}
	if *scale <= 0 {
		fmt.Fprintf(os.Stderr, "kexp: -scale must be > 0, got %v\n", *scale)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Error("-cpuprofile failed", "error", err.Error())
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Error("-cpuprofile failed", "error", err.Error())
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Error("-memprofile write failed", "error", err.Error())
				return
			}
			defer f.Close()
			runtime.GC() // materialise live-heap stats before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Error("-memprofile write failed", "error", err.Error())
			}
		}()
	}

	// A shared pipeline accumulates over every instrumented run of the driver
	// and feeds the observability sinks: JSONL journal, /metrics server, JSON
	// snapshot. The per-run telemetry the stats experiment prints then shows
	// cumulative values, which is what a scraper watching the driver sees.
	var pipe *katara.TelemetryPipeline
	if *statsJSON != "" || *tracePath != "" || *listen != "" {
		pipe = katara.NewTelemetry()
	}
	var journalW *bufio.Writer
	var journalF *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Error("-trace journal failed", "error", err.Error())
			os.Exit(1)
		}
		journalF, journalW = f, bufio.NewWriter(f)
		pipe.SetJournal(telemetry.NewJournal(journalW))
	}
	var srv *telemetry.Server
	if *listen != "" {
		srv = telemetry.NewServer(pipe)
		addr, err := srv.Start(*listen)
		if err != nil {
			log.Error("-listen failed", "error", err.Error())
			os.Exit(1)
		}
		fmt.Printf("# observability endpoints on http://%s (/metrics /healthz /progress /debug/pprof/)\n", addr)
		defer srv.Close()
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale, PaperScale: *paperScale}
	switch *size {
	case "small":
		cfg.World = world.Config{Persons: 150, Players: 80, Clubs: 16, Universities: 40, Films: 40, Books: 40}
	case "large":
		cfg.World = world.Config{Persons: 2000, Players: 800, Clubs: 120, Universities: 300, Films: 300, Books: 300}
	case "default":
		// package defaults
	default:
		fmt.Fprintf(os.Stderr, "kexp: unknown -size %q\n", *size)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	if *stats {
		want["stats"] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	fmt.Printf("# KATARA experiment driver (seed=%d scale=%.2f size=%s paper-scale=%v)\n", *seed, *scale, *size, *paperScale)
	start := time.Now()
	env := experiments.NewEnv(cfg)
	fmt.Printf("# environment built in %v\n", time.Since(start).Round(time.Millisecond))
	for _, kb := range env.KBs {
		s := kbstats.Summarize(kb.Store)
		fmt.Printf("# %-8s %6d triples, %5d entities, %4d types, %3d properties, %6d facts\n",
			kb.Name, s.Triples, s.Entities, s.Types, s.Properties, s.Facts)
	}
	fmt.Println()

	// One root span over the whole driver: each instrumented Clean run pushes
	// its own "clean" span beneath it, so a -trace journal stays one tree.
	rootSpan := pipe.PushSpan("kexp")

	run := func(name string, f func() string) {
		if !sel(name) {
			return
		}
		t0 := time.Now()
		out := f()
		fmt.Println(out)
		fmt.Printf("# %s finished in %v\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("table1", func() string { return experiments.RenderTable1(experiments.Table1(env)) })
	run("table2", func() string { return experiments.RenderTable2(experiments.Table2(env)) })
	run("table3", func() string { return experiments.RenderTable3(experiments.Table3(env)) })
	topKF := func(title string, s []experiments.TopKFSeries) string {
		switch *format {
		case "chart":
			return experiments.ChartTopKF(title, s)
		case "csv":
			return experiments.CSVTopKF(s)
		default:
			return experiments.RenderTopKF(title, s)
		}
	}
	valid := func(title string, s []experiments.ValidationSeries) string {
		switch *format {
		case "chart":
			return experiments.ChartValidation(title, s)
		case "csv":
			return experiments.CSVValidation(s)
		default:
			return experiments.RenderValidation(title, s)
		}
	}
	run("fig6", func() string {
		return topKF("Figure 6: Top-k F-measure (WebTables)", experiments.Figure6(env, *maxK))
	})
	run("fig11", func() string {
		return topKF("Figure 11: Top-k F-measure (WikiTables, RelationalTables)", experiments.Figure11(env, *maxK))
	})
	run("fig7", func() string {
		return valid("Figure 7: Pattern validation P/R (WebTables)", experiments.Figure7(env, *maxQ))
	})
	run("fig12", func() string {
		return valid("Figure 12: Pattern validation P/R (WikiTables, RelationalTables)", experiments.Figure12(env, *maxQ))
	})
	run("table4", func() string { return experiments.RenderTable4(experiments.Table4(env)) })
	run("table5", func() string { return experiments.RenderTable5(experiments.Table5(env)) })
	run("fig8", func() string {
		s := experiments.Figure8(env, 5)
		switch *format {
		case "chart":
			return experiments.ChartRepairK(s)
		case "csv":
			return experiments.CSVRepairK(s)
		default:
			return experiments.RenderFigure8(s)
		}
	})
	run("table6", func() string { return experiments.RenderTable6(experiments.Table6(env)) })
	run("table7", func() string { return experiments.RenderTable7(experiments.Table7(env)) })
	run("patterns", func() string { return experiments.RenderFigure10(experiments.Figure10(env)) })
	run("ablation", func() string { return experiments.RenderAblation(experiments.AblationCoherence(env)) })
	run("stats", func() string { return renderStats(env, *workers, *faultRate, pipe, *statsAll) })

	rootSpan.End()
	srv.MarkDone()
	if *statsJSON != "" {
		if err := writeStatsJSON(pipe, *statsJSON); err != nil {
			log.Error("-stats-json write failed", "error", err.Error())
			os.Exit(1)
		}
	}
	if journalW != nil {
		if err := journalW.Flush(); err != nil {
			log.Error("-trace journal failed", "error", err.Error())
			os.Exit(1)
		}
		if err := journalF.Close(); err != nil {
			log.Error("-trace journal failed", "error", err.Error())
			os.Exit(1)
		}
		if err := pipe.Journal().Err(); err != nil {
			log.Error("-trace journal failed", "error", err.Error())
			os.Exit(1)
		}
		fmt.Printf("# span journal (%d spans) written to %s\n", pipe.Journal().Spans(), *tracePath)
	}
	if srv != nil && *linger > 0 {
		fmt.Printf("# experiments complete; serving for another %s\n", *linger)
		time.Sleep(*linger)
	}
}

// writeStatsJSON emits the shared pipeline's cumulative snapshot as indented
// JSON to path ("-" = stdout).
func writeStatsJSON(pipe *katara.TelemetryPipeline, path string) error {
	snap := pipe.Snapshot()
	if snap == nil {
		snap = &katara.Timings{}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// renderStats runs the instrumented end-to-end pipeline over the
// RelationalTables specs and both KBs, with the pattern validated against
// the spec's ground truth like every other experiment, and prints each
// run's telemetry snapshot — stage timings, counters (including the crowd
// resilience counters) and latency percentiles, all through the shared
// Snapshot.String() renderer. A non-zero faultRate routes every crowd
// assignment through the seeded fault injector. When pipe is non-nil every
// run records into it (so -trace/-listen/-stats-json observe the runs) and
// the printed snapshots are cumulative.
func renderStats(env *experiments.Env, workers int, faultRate float64, pipe *katara.TelemetryPipeline, verbose bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipeline telemetry (RelationalTables, end-to-end, workers=%d, fault-rate=%.2f)\n",
		workers, faultRate)
	if pipe != nil {
		fmt.Fprintf(&b, "(shared pipeline: per-run snapshots accumulate)\n")
	}
	ds := env.Dataset("RelationalTables")
	for _, kb := range env.KBs {
		for _, spec := range ds.Specs {
			dirty := spec.Table.Clone()
			var cols []int
			for c := 1; c < dirty.NumCols(); c++ {
				cols = append(cols, c)
			}
			if len(cols) == 0 {
				continue
			}
			rng := rand.New(rand.NewSource(env.Cfg.Seed))
			table.InjectErrors(dirty, cols, 0.10, rng)
			opts := katara.Options{
				ValidationOracle: workload.SpecOracle{Spec: spec, KB: kb},
				FactOracle:       workload.WorldOracle{W: env.World, KB: kb},
				Telemetry:        true,
				Pipeline:         pipe, // nil = per-run pipeline via Telemetry
				Workers:          workers,
			}
			if faultRate > 0 {
				opts.Transport = katara.NewFaultInjector(katara.FaultConfig{
					Seed:          env.Cfg.Seed,
					AbandonRate:   faultRate * 0.5,
					TransientRate: faultRate * 0.25,
					SpamRate:      faultRate * 0.25,
				})
			}
			// Clone the KB: the run enriches it, and later experiments
			// must see the environment untouched. The clone keeps term
			// IDs, so the oracle built on kb answers in its ID space.
			cleaner := katara.NewCleaner(kb.Store.Clone(), katara.TrustingCrowd(), opts)
			report, err := cleaner.Clean(dirty)
			if err != nil {
				fmt.Fprintf(&b, "\n%s x %s: %v\n", kb.Name, spec.Table.Name, err)
				continue
			}
			// Snapshot.String() already renders the crowd resilience
			// counters (questions, assignments, retries, abandonments,
			// timeouts, escalations) alongside the stage timings and
			// latency percentiles — one shared format across binaries.
			report.Timings.Verbose = verbose
			fmt.Fprintf(&b, "\n%s x %s (%d rows):\n%s", kb.Name, spec.Table.Name, dirty.NumRows(), report.Timings)
			if d := report.Degraded; d.Any() {
				fmt.Fprintf(&b, "  degraded: pattern-fallback=%v tuples=%d repairs-skipped=%v\n",
					d.PatternFallback, d.Tuples, d.RepairsSkipped)
			}
		}
	}
	return b.String()
}
