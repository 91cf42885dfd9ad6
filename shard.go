// One executor for every mode. KATARA's scale-out is one data-parallel idea
// (the paper spreads the 316K Person tuples over 30 machines, §7.1), and
// every stage that can fan out does so through the single guarded helper in
// internal/fanout, sized by Options.Workers:
//
//   - pattern discovery fans the sampled rows' KB lookups out, then scores
//     once — sharding never changes the pattern;
//   - pattern validation runs ONCE — it is crowd-serial by construction;
//   - annotation's step-1 KB coverage (§6.1) is a pure function of the
//     read-only KB and one decision unit, so the units the coverage memo
//     lacks fan out across contiguous ranges; step 2 (crowd consultation and
//     enrichment) stays serial in global row order, reading the memo;
//   - the repair index is built once (instance-graph enumeration fans out by
//     root resource), then per-unit top-k retrieval fans out across ranges of
//     the distinct erroneous units.
//
// The same stages serve every mode: a serial run is one range, dedup-off is
// identity grouping (every row its own decision unit instead of its
// signature group), and an append is the row range [lo, n) of the session's
// table. Each range records into its own telemetry pipeline and provenance
// recorder, merged in range order after the join. Because everything the
// crowd, the budget accounting and KB enrichment can observe happens in the
// same serial order for every worker count, reports are byte-identical
// across worker counts — the propcheck `sharded ≡ unsharded` invariant
// (DESIGN.md §13).
package katara

import (
	"context"
	"fmt"

	"katara/internal/annotation"
	"katara/internal/crowd"
	"katara/internal/discovery"
	"katara/internal/fanout"
	"katara/internal/pattern"
	"katara/internal/provenance"
	"katara/internal/repair"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// PanicError is a panic recovered from a fan-out range, carrying the
// original goroutine's stack. The executor re-raises it on the calling
// goroutine after every range has joined — so a panic in one range never
// leaks a goroutine or deadlocks the merge, and callers that isolate panics
// (the job server) can preserve the true origin stack instead of the
// re-raise site's.
type PanicError = fanout.PanicError

// ShardPanicHook is a test seam: when non-nil it runs at the start of every
// fan-out range's work with the range index, letting tests inject a panic
// inside a real worker. Exported because the job-server tests live in a
// package that cannot be imported from here; never set outside tests.
var ShardPanicHook func(shard int)

func init() {
	fanout.Hook = func(shard int) {
		if h := ShardPanicHook; h != nil {
			h(shard)
		}
	}
}

// unitOf is row's decision unit: its signature group under dedup (in
// non-nil), the row itself otherwise.
func unitOf(in *table.Interned, row int) int {
	if in != nil {
		return in.GroupOf(row)
	}
	return row
}

// numUnits is the number of decision units of t.
func numUnits(t *Table, in *table.Interned) int {
	if in != nil {
		return in.NumGroups()
	}
	return t.NumRows()
}

// pipeline picks the run's instrumentation: the caller-owned pipeline, a
// fresh one, or nil (disabled).
func (c *Cleaner) pipeline() *telemetry.Pipeline {
	switch {
	case c.opts.Pipeline != nil:
		return c.opts.Pipeline
	case c.opts.Telemetry:
		return telemetry.New()
	}
	return nil
}

// run is the scaffold every pass over a table shares — a batch clean and an
// append's delta pass: it attaches the run's telemetry pipeline and the
// provenance recorder to the crowd and the resolver, applies the deadline
// and the crowd budget, opens the root span (name) and installs the
// row→decision-unit mapping, runs body, then closes the accounting: the
// resolver's hit/miss deltas and Report.Timings.
func (c *Cleaner) run(ctx context.Context, name string, t *Table, in *table.Interned, rows int,
	body func(ctx context.Context, tel *telemetry.Pipeline, root *telemetry.Span) (*Report, error)) (*Report, error) {
	tel := c.pipeline()
	c.crowd.SetTelemetry(tel)
	defer c.crowd.SetTelemetry(nil)
	c.resolver.SetTelemetry(tel)
	defer c.resolver.SetTelemetry(nil)
	rec := c.opts.Provenance
	c.crowd.SetProvenance(rec)
	defer c.crowd.SetProvenance(nil)
	if c.opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Deadline)
		defer cancel()
	}
	if c.opts.Budget > 0 || c.opts.BudgetAssignments > 0 {
		c.crowd.SetBudget(crowd.NewBudget(c.opts.Budget, c.opts.BudgetAssignments))
		defer c.crowd.SetBudget(nil)
	}

	// The resolver cache outlives individual runs; diff its counters so the
	// run's snapshot reports only this run's hits and misses.
	hits0, misses0 := c.resolver.Stats()

	// Root span of the run: the stage spans (and through them every leaf
	// span) nest under it, so the journal reconstructs into one rooted tree.
	root := tel.PushSpan(name)
	root.SetStr("table", t.Name)
	root.SetInt("rows", int64(rows))
	root.SetInt("workers", int64(c.opts.Workers))
	if in != nil {
		root.SetInt("signatures", int64(in.NumGroups()))
	}
	if rec.Enabled() {
		units := make([]int, t.NumRows())
		for i := range units {
			units[i] = unitOf(in, i)
		}
		rec.SetRowUnits(units, in != nil)
	}

	rep, err := body(ctx, tel, &root)

	hits1, misses1 := c.resolver.Stats()
	tel.Add(telemetry.ResolverHits, hits1-hits0)
	tel.Add(telemetry.ResolverMisses, misses1-misses0)
	root.End()
	if rep != nil {
		rep.Timings = tel.Snapshot()
	}
	return rep, err
}

// runClean is the batch pipeline: discover → validate → annotate → repair
// over every row of t, inside the shared run scaffold.
func (c *Cleaner) runClean(ctx context.Context, t *Table) (*Report, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, fmt.Errorf("katara: empty table")
	}
	if c.opts.Incremental {
		// Snapshot the pristine KB and open a fresh session before the
		// pipeline can enrich anything; captureSession below records the
		// outcome Append/ApplyKBDelta extend.
		c.beginIncremental(t)
	}
	// Distinct-signature view (Options.Dedup, default on): built fresh per
	// run — never cached on the Table, whose Rows callers mutate directly
	// (InjectErrors) with no invalidation hook. Annotation coverage, crowd
	// questions and repair ranking all collapse onto distinct signatures.
	var in *table.Interned
	if *c.opts.Dedup {
		in = t.Interned()
	}
	// Evidence lineage (Options.Provenance) is reset per batch run.
	rec := c.opts.Provenance
	rec.Reset()
	return c.run(ctx, "clean", t, in, t.NumRows(), func(ctx context.Context, tel *telemetry.Pipeline, root *telemetry.Span) (*Report, error) {
		start := tel.StartStage(telemetry.StageDiscover)
		cands := c.generate(t, tel)
		candidates := discovery.TopK(cands, c.opts.TopK)
		tel.EndStage(telemetry.StageDiscover, start)
		if len(candidates) == 0 {
			return nil, ErrNoPattern
		}
		if rec.Enabled() {
			for _, cand := range candidates {
				rec.RecordPattern(cand.Key(), cand.Score, false)
			}
		}
		c.crowd.ResetStats()
		rep := &Report{}
		start = tel.StartStage(telemetry.StageValidate)
		p, _, degraded := c.validatePattern(ctx, t, candidates)
		if degraded {
			rep.Degraded.PatternFallback = true
			tel.Inc(telemetry.DegradedDecisions)
		}
		p = c.withPathEdges(p, cands)
		if rec.Enabled() && p != nil {
			// The validated (possibly stripped or path-extended) winner.
			rec.RecordPattern(p.Key(), p.Score, true)
		}
		tel.EndStage(telemetry.StageValidate, start)
		start = tel.StartStage(telemetry.StageAnnotate)
		ann := c.annotator(ctx, p, tel)
		ann.Interned = in
		if c.opts.Incremental && c.session != nil {
			// Carry the memo state (questions, seen facts) on the session so
			// a later Append's delta pass continues where this run left off.
			ann.Session = c.session.ann
		}
		cover := make([]*pattern.Match, numUnits(t, in))
		res := c.annotateRows(ann, t, cover, 0)
		tel.EndStage(telemetry.StageAnnotate, start)
		rep.Pattern = p
		rep.Annotations = res.Tuples
		rep.NewFacts = res.NewFacts
		rep.Degraded.Tuples = res.DegradedTuples
		if ctx.Err() != nil {
			// Deadline spent before repair: degrade rather than blow through it.
			rep.Degraded.RepairsSkipped = true
			tel.Inc(telemetry.DegradedDecisions)
		} else {
			start = tel.StartStage(telemetry.StageRepair)
			rep.Repairs = c.repairs(t, p, res.Errors(), tel, in, rec)
			tel.EndStage(telemetry.StageRepair, start)
		}
		rep.Crowd = c.crowd.Stats()
		rep.QuestionsAsked = rep.Crowd.Questions
		root.SetInt("questions", int64(rep.QuestionsAsked))
		rep.Provenance = rec
		if c.opts.Incremental && c.session != nil {
			c.captureSession(t, rep, in, cover)
		}
		return rep, nil
	})
}

// annotateRows is the §6.1 stage over rows [lo, n) of t. cover is the
// unit-indexed coverage memo (decision units are ann.Interned's signature
// groups under dedup, rows otherwise). The coverage of every unit of the
// range that cover lacks fans out across Options.Workers ranges first (one
// worker runs the single range inline); step 2 (crowd consultation and
// enrichment) then runs serially in row order over the memo, evaluating
// inline only the units an enrichment invalidated.
func (c *Cleaner) annotateRows(ann *annotation.Annotator, t *Table, cover []*pattern.Match, lo int) *annotation.Result {
	n := t.NumRows()
	var todo []int
	queued := make([]bool, len(cover))
	for row := lo; row < n; row++ {
		if u := unitOf(ann.Interned, row); cover[u] == nil && !queued[u] {
			queued[u] = true
			todo = append(todo, u)
		}
	}
	span := ann.Telemetry.PushSpan("annotate-coverage")
	// Coverage ranges only read the KB: force the lazily-memoised
	// hierarchy closures before the fan-out.
	c.kb.WarmClosures()
	fanout.Run(len(todo), c.opts.Workers, ann.Telemetry, nil, func(r fanout.Range, tel *telemetry.Pipeline, _ *provenance.Recorder) {
		ann.EvaluateCoverage(t, todo[r.Lo:r.Hi], cover, tel)
	})
	span.SetInt("units", int64(len(todo)))
	span.End()
	return ann.AnnotateRange(t, cover, lo, n)
}

// repairs is the batch §6.2 stage: the index is built once (deterministic
// for every worker count), then rows are ranked against it.
func (c *Cleaner) repairs(t *Table, p *Pattern, rows []int, tel *telemetry.Pipeline, in *table.Interned, rec *provenance.Recorder) map[int][]Repair {
	if len(p.Edges) == 0 {
		return nil // no relationships: repairs are undefined (§7.4)
	}
	out := make(map[int][]Repair, len(rows))
	if len(rows) == 0 {
		// An error-free table needs no repairs: skip instance-graph
		// enumeration entirely — on large KBs building the index dwarfs
		// the rest of the pipeline.
		return out
	}
	c.rankRepairs(c.buildIndex(p, tel), t, rows, in, tel, rec, out)
	return out
}

// buildIndex builds the §6.2 repair index against the live KB.
func (c *Cleaner) buildIndex(p *Pattern, tel *telemetry.Pipeline) *repair.Index {
	start := tel.StartStage(telemetry.StageBuildIndex)
	ix := repair.BuildIndex(c.kb, p, repair.Options{
		MaxGraphs: c.opts.RepairMaxGraphs,
		Weights:   c.opts.RepairWeights,
		Workers:   c.opts.Workers,
		Telemetry: tel,
	})
	tel.EndStage(telemetry.StageBuildIndex, start)
	return ix
}

// rankRepairs ranks rows of t against ix into out, keyed by row. Rows
// collapse onto one ranking per decision unit (the signature group under
// dedup, the row otherwise — TopK is a pure function of the tuple's values
// and the read-only index, so duplicates share the ranked list), and the
// distinct units fan out across ranges, each ranking through a shallow
// index view that records into the range's pipeline. With a provenance
// recorder, every ranked unit's candidate list is captured.
func (c *Cleaner) rankRepairs(ix *repair.Index, t *Table, rows []int, in *table.Interned, tel *telemetry.Pipeline, rec *provenance.Recorder, out map[int][]Repair) {
	// lookup holds the rows actually ranked (one representative per unit,
	// first-occurrence order); slot maps each input row to its lookup
	// index, -1 for out-of-range rows.
	lookup := make([]int, 0, len(rows))
	slot := make([]int, len(rows))
	seen := make(map[int]int)
	for i, row := range rows {
		if row < 0 || row >= t.NumRows() {
			slot[i] = -1
			continue
		}
		u := unitOf(in, row)
		li, ok := seen[u]
		if !ok {
			li = len(lookup)
			seen[u] = li
			lookup = append(lookup, row)
		}
		slot[i] = li
	}
	ranked := make([][]Repair, len(lookup))
	fanout.Run(len(lookup), c.opts.Workers, tel, rec, func(r fanout.Range, tel *telemetry.Pipeline, rec *provenance.Recorder) {
		ixr := ix.WithTelemetry(tel)
		for i := r.Lo; i < r.Hi; i++ {
			reps, considered := ixr.TopKStats(t.Rows[lookup[i]], c.opts.RepairK)
			ranked[i] = reps
			if rec.Enabled() {
				rec.RecordRepair(unitOf(in, lookup[i]), considered, repairCandidates(reps))
			}
		}
	})
	for i, row := range rows {
		if slot[i] >= 0 {
			out[row] = ranked[slot[i]]
		}
	}
}

// repairCandidates converts a ranked repair list to its provenance record.
func repairCandidates(reps []Repair) []provenance.Candidate {
	cands := make([]provenance.Candidate, len(reps))
	for j, r := range reps {
		ch := make([]provenance.Change, len(r.Changes))
		for k, cg := range r.Changes {
			ch[k] = provenance.Change{Col: cg.Col, From: cg.From, To: cg.To}
		}
		cands[j] = provenance.Candidate{Graph: r.Graph.ID, Cost: r.Cost, Changes: ch}
	}
	return cands
}
