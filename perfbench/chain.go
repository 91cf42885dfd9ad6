package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"katara"
	"katara/internal/propcheck"
)

// chainShape is the append chain's length and delta size.
func chainShape(cfg *config) (steps, rows int) {
	if cfg.Size == "tiny" {
		return 4, 64
	}
	return 16, 512
}

// runAppendChain is the append-chain workload: one incremental session
// opens with a Clean of the paper-scale Person table, then takes a chain of
// Append calls on that same session, each of rows sampled with replacement
// from the base table. The chain's final cumulative report must equal one
// batch Clean of the merged table (propcheck.CanonicalSemantic). Chains
// repeat with the same inputs until the measurement time is used.
//
// The base table is exactly katara -paper-scale's, and the seed picks only
// the appended rows. How many appends drift into a full re-clean depends
// mostly on the base table's contents (three to six of 16 across
// error-injection seeds, two to four on the fixed base), so the fixed base
// keeps the chain's figures comparable from seed to seed while the drift
// still shows. op_p50_s takes the appends that stayed on the incremental
// path; the re-cleans are reported beside it.
//
// A traced run also records the provenance drift events, which must match
// the re-cleans, and times one untraced session-opening Clean and one
// traced batch Clean of the base table for the tracing overhead and the
// session's opening cost.
func runAppendChain(cfg *config) (*outcome, error) {
	in := newPersonInput(cfg, paperInjectSeed)
	o := newOutcome()
	o.Concurrency = runtime.GOMAXPROCS(0)
	if cfg.Trace {
		o.tr = newTracer()
	}
	base := in.spec.Table
	steps, rows := chainShape(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	deltas := make([][][]string, steps)
	merged := base.Clone()
	for i := range deltas {
		deltas[i] = make([][]string, rows)
		for j := range deltas[i] {
			deltas[i][j] = base.Rows[rng.Intn(base.NumRows())]
			merged.Append(deltas[i][j]...)
		}
	}

	// Oracle: one batch Clean of the merged table, outside the measurement.
	kb := in.kb()
	ref, err := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), in.options(kb)).Clean(merged)
	if err != nil {
		return nil, fmt.Errorf("batch reference clean: %w", err)
	}
	want := digest(propcheck.CanonicalSemantic(ref))
	ref, merged = nil, nil

	setup, newCleaner := in.setupSamples(15, o.tr)
	var batchTraced, openUntraced time.Duration
	if cfg.Trace {
		kb := in.kb()
		opts := in.options(kb)
		opts.Telemetry, opts.Provenance = true, katara.NewProvenance()
		start := time.Now()
		if _, err := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), opts).Clean(base); err != nil {
			return nil, fmt.Errorf("traced batch clean: %w", err)
		}
		batchTraced = time.Since(start)
		kb = in.kb()
		opts = in.options(kb)
		opts.Incremental = true
		start = time.Now()
		if _, err := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), opts).Clean(base); err != nil {
			return nil, fmt.Errorf("untraced session open: %w", err)
		}
		openUntraced = time.Since(start)
	}

	// opens, appends, fast and reclean are raw wall-clock; the adj* copies
	// are steal-adjusted by the chain's stolen share (see stealWindow). An
	// append is a re-clean when it replaced the cleaner's KB: every drift
	// rewinds the session to its KB snapshot and cleans the merged table.
	var opens, appends, fast, reclean, adjOpens, adjFast, steals []float64
	var chains, questions, chainQuestions, peaks, drifts []float64
	var layers []layerSample
	var pct percentiles
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var last time.Duration // one chain's length: no chain starts that would overrun
	for c := 0; c == 0 || time.Now().Add(last).Before(deadline); c++ {
		iter := time.Now()
		kb := in.kb()
		opts := in.options(kb)
		opts.Incremental = true
		var rec *katara.ProvenanceRecorder
		if cfg.Trace {
			rec = katara.NewProvenance()
			opts.Telemetry, opts.Provenance = true, rec
		}
		cr := katara.TrustingCrowd()
		cl := katara.NewCleaner(kb.Store, cr, opts)
		trace := fmt.Sprintf("chain-%d", c)
		var intern time.Duration
		if cfg.Trace {
			intern = timeIntern(base)
		}
		hp := startHeapPoll()
		sw := startSteal()
		start := time.Now()
		rep, err := cl.Clean(base)
		end := time.Now()
		peak := hp.finish()
		o.Attempted++
		if err != nil {
			o.fail("chain %d: session-opening clean: %v", c, err)
			continue
		}
		open := end.Sub(start).Seconds()
		asked := cr.Stats().Questions
		var sample layerSample
		var root int64
		if cfg.Trace {
			sample = layerSample{total: end.Sub(start), intern: intern, stages: breakdown(rep.Timings)}
			pct.add(rep)
			if c == 0 {
				addCounters(o, rep, cr.Stats())
			}
			root = o.tr.add(span{Trace: trace, Name: "katara.session_open", Start: o.tr.at(start), End: o.tr.at(end)})
			o.tr.sequence(trace, root, o.tr.at(start), sample.stages.parts(intern))
		}
		var chain time.Duration
		var chainAll, chainFast, chainReclean []float64
		ok := true
		for i, delta := range deltas {
			kb0 := cl.KB()
			start := time.Now()
			r, err := cl.Append(delta)
			end := time.Now()
			o.Attempted++
			if err != nil {
				o.fail("chain %d: append %d: %v", c, i, err)
				ok = false
				break
			}
			rep = r
			d := end.Sub(start)
			chain += d
			asked += cr.Stats().Questions
			chainAll = append(chainAll, d.Seconds())
			name := "katara.append"
			if cl.KB() != kb0 {
				name = "katara.reclean"
				chainReclean = append(chainReclean, d.Seconds())
			} else {
				chainFast = append(chainFast, d.Seconds())
			}
			if !cfg.Trace {
				continue
			}
			pct.add(r)
			if c == 0 {
				// Every chain does the same work; the first one's counters
				// stand for all.
				addCounters(o, r, cr.Stats())
			}
			b := breakdown(r.Timings)
			sample.stages = sample.stages.add(b)
			id := o.tr.add(span{Trace: trace, Name: name, Start: o.tr.at(start), End: o.tr.at(end)})
			o.tr.sequence(trace, id, o.tr.at(start), b.parts(0))
		}
		stolen := sw.share()
		if !ok {
			continue
		}
		if err := checkChain(want, rep); err != nil {
			o.fail("chain %d: %v", c, err)
		}
		last = time.Since(iter)
		opens = append(opens, open)
		appends = append(appends, chainAll...)
		fast = append(fast, chainFast...)
		reclean = append(reclean, chainReclean...)
		adjOpens = append(adjOpens, open*(1-stolen))
		adjFast = append(adjFast, scale(chainFast, 1-stolen)...)
		steals = append(steals, stolen)
		chains = append(chains, chain.Seconds())
		questions = append(questions, float64(rep.QuestionsAsked))
		chainQuestions = append(chainQuestions, float64(asked))
		peaks = append(peaks, peak)
		drifts = append(drifts, float64(len(chainReclean)))
		if cfg.Trace {
			if n := len(rec.Drifts()); n != len(chainReclean) {
				o.fail("chain %d: %d provenance drift events, %d re-cleans", c, n, len(chainReclean))
			}
			sample.total = end.Sub(start) + chain
			layers = append(layers, sample)
			o.Layer["table.signatures"] = float64(base.Interned().NumGroups())
			o.Layer["rdf.triples"] = float64(kb.Store.NumTriples())
		}
	}

	o.E2E["setup_s"] = median(setup)
	o.E2E["clean_s"] = median(adjOpens)
	o.E2E["op_p50_s"] = median(adjFast)
	o.E2E["crowd_questions"] = median(questions)
	o.E2E["peak_mem_mib"] = median(peaks)
	o.Detail["open_wall_s"] = median(opens)
	o.Detail["append_p50_s"] = median(appends)
	o.Detail["append_fast_p50_s"] = median(fast)
	o.Detail["reclean_p50_s"] = median(reclean)
	o.Detail["drifts"] = median(drifts)
	o.Detail["chain_s"] = median(chains)
	o.Detail["chain_questions"] = median(chainQuestions)
	o.Detail["steal_share"] = median(steals)
	o.Samples["open_s"] = adjOpens
	o.Samples["append_fast_s"] = adjFast
	o.Samples["open_wall_s"] = opens
	o.Samples["append_wall_s"] = appends
	o.Samples["setup_s"] = setup
	if cfg.Trace {
		// Over a chain the layer times are raw wall-clock sums over the
		// opening clean and every append; trace.clean_s is the chain's
		// traced wall-clock.
		recordLayers(o, layers)
		pct.record(o)
		o.Layer["katara.newcleaner_s"] = median(newCleaner)
		o.Layer["katara.session_open_s"] = median(opens) - batchTraced.Seconds()
		o.Layer["katara.session_drifts"] = median(drifts) // equal to the recorder's drift events, checked above
		o.Layer["katara.append_fast_p50_s"] = median(fast)
		o.Layer["katara.reclean_s"] = median(reclean)
		o.Layer["katara.chain_s"] = median(chains)
		o.Layer["katara.chain_questions"] = median(chainQuestions)
		o.Layer["trace.overhead_s"] = median(opens) - openUntraced.Seconds()
	}
	return o, nil
}
