package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"katara"
	"katara/internal/crowd"
	"katara/internal/propcheck"
	"katara/internal/table"
	"katara/internal/telemetry"
	"katara/internal/workload"
	"katara/internal/world"
)

// paperInjectSeed is the error-injection seed katara -paper-scale uses.
const paperInjectSeed = 309

// personInput is the Person table katara -paper-scale cleans (world seed 7,
// table seed 308, 316,000 rows) with 10% injected errors in the
// pattern-covered columns; injectSeed picks the corrupted cells.
type personInput struct {
	w        *world.World
	spec     *workload.TableSpec
	injected []table.CellRef
	// orig holds the clean value of every injected cell.
	orig map[table.CellRef]string
}

func newPersonInput(cfg *config, injectSeed int64) *personInput {
	rows := workload.PaperPersonRows
	if cfg.Size == "tiny" {
		rows = 3000
	}
	w := world.New(7, world.Config{
		Persons: 150, Players: 80, Clubs: 16, Universities: 40, Films: 40, Books: 40,
	})
	spec := workload.PersonTable(w, 308, rows)
	clean := spec.Table.Clone()
	injected := table.InjectErrors(spec.Table, []int{1, 2, 3}, 0.10, rand.New(rand.NewSource(injectSeed)))
	orig := make(map[table.CellRef]string, len(injected))
	for _, c := range injected {
		orig[c] = clean.Rows[c.Row][c.Col]
	}
	return &personInput{w: w, spec: spec, injected: injected, orig: orig}
}

// options are the paper-scale run's settings against kb: perfect crowd with
// world and spec oracles, Workers = Shards = GOMAXPROCS, discovery sampling
// capped at 500 rows.
func (in *personInput) options(kb *workload.KB) katara.Options {
	return katara.Options{
		FactOracle:       workload.WorldOracle{W: in.w, KB: kb},
		ValidationOracle: workload.SpecOracle{Spec: in.spec, KB: kb},
		Workers:          -1,
		Shards:           -1,
		MaxRows:          500,
	}
}

// kb builds the DBpedia-shaped KB. Enrichment mutates it, so every clean
// gets a fresh one.
func (in *personInput) kb() *workload.KB { return workload.DBpediaLike(in.w, 7) }

// setupSamples times the library's set-up n times: KB build plus
// NewCleaner (the KB statistics), each after a forced GC, steal-adjusted
// over the whole loop (each sample is too short to measure its own share).
// With a tracer, each NewCleaner call is a katara.newcleaner span.
func (in *personInput) setupSamples(n int, tr *tracer) (setup, newCleaner []float64) {
	sw := startSteal()
	defer func() { setup = scale(setup, 1-sw.share()) }()
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		kb := in.kb()
		opts := in.options(kb)
		var d time.Duration
		if tr != nil {
			d = tr.measure("setup", "katara.newcleaner", func() {
				katara.NewCleaner(kb.Store, katara.TrustingCrowd(), opts)
			})
		} else {
			t := time.Now()
			katara.NewCleaner(kb.Store, katara.TrustingCrowd(), opts)
			d = time.Since(t)
		}
		setup = append(setup, time.Since(start).Seconds())
		newCleaner = append(newCleaner, d.Seconds())
	}
	return setup, newCleaner
}

// repairQuality scores a report's top-1 repairs against the injected cells:
// precision over rows given a repair, recall over injected cells.
func (in *personInput) repairQuality(rep *katara.Report) (precision, recall float64) {
	proposed, right, restored := 0, 0, 0
	for row, reps := range rep.Repairs {
		if len(reps) == 0 {
			continue
		}
		proposed++
		ok := false
		for _, ch := range reps[0].Changes {
			if want, hit := in.orig[table.CellRef{Row: row, Col: ch.Col}]; hit && ch.To == want {
				restored++
				ok = true
			}
		}
		if ok {
			right++
		}
	}
	if proposed > 0 {
		precision = float64(right) / float64(proposed)
	}
	if len(in.injected) > 0 {
		recall = float64(restored) / float64(len(in.injected))
	}
	return precision, recall
}

// stageBreakdown is one traced operation's split by layer, read from
// Report.Timings.
type stageBreakdown struct {
	discover, validate, annotate, index, repair time.Duration
}

func breakdown(s *telemetry.Snapshot) stageBreakdown {
	var b stageBreakdown
	if s == nil {
		return b
	}
	for _, st := range s.Stages {
		switch st.Stage {
		case "discover":
			b.discover = st.Duration
		case "validate":
			b.validate = st.Duration
		case "annotate":
			b.annotate = st.Duration
		case "build-index":
			b.index = st.Duration
		case "repair":
			b.repair = st.Duration
		}
	}
	return b
}

func (b stageBreakdown) add(o stageBreakdown) stageBreakdown {
	return stageBreakdown{b.discover + o.discover, b.validate + o.validate, b.annotate + o.annotate,
		b.index + o.index, b.repair + o.repair}
}

// timeIntern times one Table.Interned call. The interned view is pure and
// rebuilt inside every Clean, so an identical call made just before the
// clean measures the clean's interning.
func timeIntern(t *katara.Table) time.Duration {
	start := time.Now()
	t.Interned()
	return time.Since(start)
}

// parts lays the breakdown out as derived spans, starting with the clean's
// interning (timed by timeIntern).
func (b stageBreakdown) parts(intern time.Duration) []part {
	return []part{
		{Name: "table.intern", D: intern},
		{Name: "discovery", D: b.discover},
		{Name: "validation", D: b.validate},
		{Name: "annotation", D: b.annotate},
		{Name: "repair", D: b.repair, Children: []part{{Name: "repair.index", D: b.index}}},
	}
}

// layerSample is one traced operation's per-layer figures.
type layerSample struct {
	total, intern time.Duration
	stages        stageBreakdown
}

// addCounters adds one traced operation's counters (Report.Timings and cs,
// the crowd's accounting of that operation alone) to the per-layer metrics.
func addCounters(o *outcome, rep *katara.Report, cs katara.CrowdStats) {
	s := rep.Timings
	add := func(name string, v int64) { o.Layer[name] += float64(v) }
	add("annotation.tuples", s.Counter("tuples-annotated"))
	add("annotation.kb_lookups", s.Counter("kb-lookups"))
	add("crowd.questions", s.Counter("crowd-questions"))
	add("crowd.questions_deduped", s.Counter("crowd-questions-deduped"))
	add("validation.questions", int64(cs.ByKind[crowd.TypeValidation]+cs.ByKind[crowd.RelationshipValidation]))
	add("resolve.hits", s.Counter("resolver-hits"))
	add("resolve.misses", s.Counter("resolver-misses"))
	add("repair.graphs", s.Counter("graphs-enumerated"))
	add("repair.candidates", s.Counter("repairs-generated"))
	if hits, misses := o.Layer["resolve.hits"], o.Layer["resolve.misses"]; hits+misses > 0 {
		o.Layer["resolve.hit_ratio"] = hits / (hits + misses)
	}
	o.Layer["annotation.new_facts"] = float64(len(rep.NewFacts))
}

// percentiles collects traced operations' per-tuple annotation and per-row
// top-k repair latency percentiles (nanoseconds) from Report.Timings.
type percentiles struct{ tupleP50, tupleP99, topkP99 []float64 }

func (p *percentiles) add(rep *katara.Report) {
	if h := rep.Timings.HistByName("annotate-tuple"); h != nil && h.Count > 0 {
		p.tupleP50 = append(p.tupleP50, float64(h.P50))
		p.tupleP99 = append(p.tupleP99, float64(h.P99))
	}
	if h := rep.Timings.HistByName("repair-topk"); h != nil && h.Count > 0 {
		p.topkP99 = append(p.topkP99, float64(h.P99))
	}
}

// record sets each percentile metric to its median over the operations.
func (p *percentiles) record(o *outcome) {
	o.Layer["annotation.tuple_p50_ns"] = median(p.tupleP50)
	o.Layer["annotation.tuple_p99_ns"] = median(p.tupleP99)
	o.Layer["repair.topk_p99_ns"] = median(p.topkP99)
}

// recordLayers sets the per-layer times from the traced samples: each layer
// is the median over the samples, trace.clean_s the median total, and
// katara.unattributed_s what the total holds beyond the named layers, so
// the named layers plus katara.unattributed_s sum to trace.clean_s.
func recordLayers(o *outcome, samples []layerSample) {
	var total, intern, disc, val, ann, idx, rep []float64
	for _, s := range samples {
		total = append(total, s.total.Seconds())
		intern = append(intern, s.intern.Seconds())
		disc = append(disc, s.stages.discover.Seconds())
		val = append(val, s.stages.validate.Seconds())
		ann = append(ann, s.stages.annotate.Seconds())
		idx = append(idx, s.stages.index.Seconds())
		rep = append(rep, s.stages.repair.Seconds())
	}
	o.Layer["trace.clean_s"] = median(total)
	o.Layer["table.intern_s"] = median(intern)
	o.Layer["discovery.s"] = median(disc)
	o.Layer["validation.s"] = median(val)
	o.Layer["annotation.s"] = median(ann)
	o.Layer["repair.index_s"] = median(idx)
	o.Layer["repair.s"] = median(rep)
	o.Layer["katara.unattributed_s"] = o.Layer["trace.clean_s"] - (o.Layer["table.intern_s"] +
		o.Layer["discovery.s"] + o.Layer["validation.s"] + o.Layer["annotation.s"] + o.Layer["repair.s"])
}

// runPersonBatch is the person-batch workload: closed-loop batch cleans of
// the paper-scale Person table, one at a time, each on a freshly built KB.
// Every clean's canonical report must equal one serial, unsharded reference
// clean's. A traced run alternates untraced and traced cleans, so the
// tracing overhead is measured inside one process. The seed picks the
// corrupted cells.
func runPersonBatch(cfg *config) (*outcome, error) {
	in := newPersonInput(cfg, cfg.Seed)
	o := newOutcome()
	o.Concurrency = runtime.GOMAXPROCS(0)
	if cfg.Trace {
		o.tr = newTracer()
	}

	// Reference: serial and unsharded, outside the measurement.
	kb := in.kb()
	opts := in.options(kb)
	opts.Workers, opts.Shards = 1, 1
	t0 := time.Now()
	ref, err := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), opts).Clean(in.spec.Table)
	if err != nil {
		return nil, fmt.Errorf("reference clean: %w", err)
	}
	serial := time.Since(t0)
	want := digest(propcheck.Canonical(ref))
	precision, recall := in.repairQuality(ref)
	ref = nil

	setup, newCleaner := in.setupSamples(15, o.tr)
	// cleans are steal-adjusted (see stealWindow), walls the raw wall-clock.
	var cleans, walls, steals, questions, peaks, gcs, allocs []float64
	var traced []layerSample
	var pct percentiles
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var last time.Duration // one iteration's length: no clean starts that would overrun
	for i := 0; i < 2 || time.Now().Add(last).Before(deadline); i++ {
		iter := time.Now()
		trace := cfg.Trace && i%2 == 1
		kb := in.kb()
		opts := in.options(kb)
		opts.Telemetry = trace
		cl := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), opts)
		var intern time.Duration
		if trace {
			intern = timeIntern(in.spec.Table)
		}
		gc0, alloc0 := runtimeCounters()
		hp := startHeapPoll()
		sw := startSteal()
		start := time.Now()
		rep, err := cl.Clean(in.spec.Table)
		end := time.Now()
		stolen := sw.share()
		peak := hp.finish()
		gc1, alloc1 := runtimeCounters()
		o.Attempted++
		if err != nil {
			o.fail("clean %d: %v", i, err)
			continue
		}
		if err := checkBatch(want, rep); err != nil {
			o.fail("clean %d: %v", i, err)
		}
		last = time.Since(iter)
		if !trace {
			walls = append(walls, end.Sub(start).Seconds())
			cleans = append(cleans, end.Sub(start).Seconds()*(1-stolen))
			steals = append(steals, stolen)
			questions = append(questions, float64(rep.QuestionsAsked))
			peaks = append(peaks, peak)
			gcs = append(gcs, float64(gc1-gc0))
			allocs = append(allocs, float64(alloc1-alloc0)/mib)
			continue
		}
		b := breakdown(rep.Timings)
		traced = append(traced, layerSample{total: end.Sub(start), intern: intern, stages: b})
		pct.add(rep)
		root := o.tr.add(span{Trace: "person", Name: "katara.clean", Start: o.tr.at(start), End: o.tr.at(end)})
		o.tr.sequence("person", root, o.tr.at(start), b.parts(intern))
		if len(traced) == 1 {
			// Every clean does the same work; the first one's counters stand
			// for all.
			addCounters(o, rep, rep.Crowd)
			o.Layer["table.signatures"] = float64(in.spec.Table.Interned().NumGroups())
			o.Layer["rdf.triples"] = float64(kb.Store.NumTriples())
		}
	}

	o.E2E["setup_s"] = median(setup)
	o.E2E["clean_s"] = median(cleans)
	o.E2E["op_p50_s"] = median(cleans)
	o.E2E["crowd_questions"] = median(questions)
	o.E2E["peak_mem_mib"] = median(peaks)
	o.Detail["repair_precision"] = precision
	o.Detail["repair_recall"] = recall
	o.Detail["serial_clean_s"] = serial.Seconds()
	o.Detail["clean_wall_s"] = median(walls)
	o.Detail["steal_share"] = median(steals)
	o.Samples["clean_s"] = cleans
	o.Samples["clean_wall_s"] = walls
	o.Samples["setup_s"] = setup
	if cfg.Trace {
		// Per-layer times are raw wall-clock, like the stage timings.
		recordLayers(o, traced)
		pct.record(o)
		o.Layer["katara.newcleaner_s"] = median(newCleaner)
		o.Layer["katara.shard_speedup"] = serial.Seconds() / median(walls)
		o.Layer["repair.precision"] = precision
		o.Layer["repair.recall"] = recall
		o.Layer["runtime.gc_cycles"] = median(gcs)
		o.Layer["runtime.alloc_mib"] = median(allocs)
		o.Layer["trace.overhead_s"] = o.Layer["trace.clean_s"] - median(walls)
	}
	return o, nil
}
