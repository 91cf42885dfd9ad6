// Incremental and streaming cleaning: Append re-cleans only the rows added
// since the last run, ApplyKBDelta folds new KB facts into the session's
// snapshot and re-cleans from it. Both are anchored to one invariant, pinned
// by the propcheck differentials: the cumulative report after any sequence
// of increments is semantically identical to one batch Clean of the merged
// inputs (incremental(T + ΔT) ≡ batch(T ∪ ΔT), and ApplyKBDelta ≡ rebuild
// from the merged KB).
//
// The machinery behind the invariant:
//
//   - the session snapshots the KB at Clean time (Clone, ID-preserving),
//     so drift checks and full re-cleans run against exactly the store a
//     batch run over the merged inputs would start from — never against the
//     enrichment the session itself added;
//   - the validated pattern is re-derived per increment by running discovery
//     over the merged table and REPLAYING §5 MUVF from the memoised crowd
//     decisions (validation.AnswerMemo): zero crowd questions, and any
//     decision context the memo cannot answer — or a replayed winner that
//     differs from the session's pattern — is drift, triggering a recorded
//     full re-clean;
//   - annotation of the delta runs the batch annotate stage over the row
//     range [lo, n), with annotation.Session carrying the base run's question
//     memo and seen-facts set and the session carrying its coverage memo,
//     making the delta pass observationally the suffix of one long batch
//     pass; only units the memo lacks are evaluated;
//   - repairs reuse the cached §6.2 index while the KB is unchanged and rank
//     only the delta's erroneous rows; delta enrichment re-ranks every
//     erroneous row against a rebuilt index, which is exactly what a batch
//     run over the merged inputs computes;
//   - ApplyKBDelta adds the facts to the snapshot and takes the recorded
//     kb-delta re-clean: a batch run over the merged KB, by construction.
//
// Equivalence assumes the crowd's answers are a function of the question
// (the oracle-pinned simulated crowds); a noisy live crowd diverges across
// batch re-runs too, so replay is no worse than the batch baseline there.
package katara

import (
	"context"
	"errors"
	"fmt"

	"katara/internal/annotation"
	"katara/internal/crowd"
	"katara/internal/discovery"
	"katara/internal/kbstats"
	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/repair"
	"katara/internal/resolve"
	"katara/internal/table"
	"katara/internal/telemetry"
	"katara/internal/validation"
)

// ErrNotIncremental is returned by Append and ApplyKBDelta when no
// incremental session is active: Options.Incremental must be set and a Clean
// must have run first.
var ErrNotIncremental = errors.New("katara: Append requires Options.Incremental and a prior Clean")

// KBAddition is one triple to fold into the knowledge base mid-session via
// ApplyKBDelta. Object is a resource IRI unless Literal is set.
type KBAddition struct {
	Subject   string
	Predicate string
	Object    string
	Literal   bool
}

// session is the state of one incremental cleaning session, created by Clean
// when Options.Incremental is set and advanced by Append / ApplyKBDelta.
type session struct {
	// tbl is the session's private copy of the table; Append grows it in
	// place. A copy, not the caller's table: callers (and the job layer's
	// chain re-execution) must be able to reuse their submission unchanged.
	tbl  *Table
	rows int // rows covered by the cumulative report
	// in is the distinct-signature view, extended in place per append
	// (nil when Options.Dedup is off).
	in *table.Interned
	// base is the ID-preserving KB snapshot taken when Clean started — the
	// store a batch run over the merged inputs would start from. Session
	// enrichment never touches it; ApplyKBDelta adds its facts here and
	// re-cleans from it.
	base *rdf.Store
	// baseStats/baseResolver serve drift-check discovery over base; built
	// lazily on the first increment.
	baseStats    *kbstats.Stats
	baseResolver *resolve.Cache
	// memo holds the crowd's §5 plurality decisions from the validated run;
	// replaying MUVF from it is the drift detector.
	memo *validation.AnswerMemo
	// ann carries the annotation memo state (question memo, seen facts)
	// across passes; cover is the unit-indexed coverage memo.
	ann        *annotation.Session
	cover      []*pattern.Match
	patternKey string
	// report is the cumulative report, extended in place.
	report *Report
	errs   []int // cumulative erroneous rows, ascending
	// repairIx is the cached §6.2 index; valid while the KB still has
	// repairStamp triples (every KB mutation adds a triple).
	repairIx    *repair.Index
	repairStamp int
	// dirty forces a full re-clean on the next increment: the session
	// degraded (budget/deadline decisions are not replayable) or a prior
	// increment failed.
	dirty bool
}

// beginIncremental opens a fresh session at the start of a Clean run, before
// the pipeline can enrich the KB.
func (c *Cleaner) beginIncremental(t *Table) {
	c.session = &session{
		tbl:  t.Clone(),
		base: c.kb.Clone(),
		memo: validation.NewAnswerMemo(),
		ann:  &annotation.Session{},
	}
}

// captureSession records the completed run's outcome on the session.
func (c *Cleaner) captureSession(t *Table, rep *Report, in *table.Interned, cover []*pattern.Match) {
	s := c.session
	s.in = in
	s.cover = cover
	s.rows = t.NumRows()
	if rep.Pattern != nil {
		s.patternKey = rep.Pattern.Key()
	}
	s.report = rep
	s.errs = s.errs[:0]
	for _, ta := range rep.Annotations {
		if ta.Label == Erroneous {
			s.errs = append(s.errs, ta.Row)
		}
	}
	s.repairIx = nil
	// Degraded decisions depend on budget/deadline state a replay cannot
	// reproduce; all further increments fall back to full re-cleans.
	s.dirty = rep.Degraded.Any()
}

// Append grows the session's table by rows and re-cleans incrementally: the
// already-validated pattern is reused when the memoised crowd decisions still
// pin it (checked by replaying MUVF over freshly discovered candidates —
// zero crowd cost), annotation runs only over the delta with the base run's
// memo state, and repairs rank only the delta's erroneous rows unless the
// delta enriched the KB. It returns the cumulative report, which is
// semantically identical to one batch Clean of the merged table. On drift —
// the appended rows shifted discovery or a validation decision — a
// provenance drift event is recorded and the whole merged table is re-cleaned
// from the session's KB snapshot.
func (c *Cleaner) Append(rows [][]string) (*Report, error) {
	return c.AppendContext(context.Background(), rows)
}

// AppendContext is Append bounded by ctx and the Options' budget/deadline.
func (c *Cleaner) AppendContext(ctx context.Context, rows [][]string) (*Report, error) {
	s := c.session
	if !c.opts.Incremental || s == nil {
		return nil, ErrNotIncremental
	}
	if len(rows) == 0 && s.report != nil {
		return s.report, nil
	}
	cols := s.tbl.NumCols()
	for _, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("katara: appended row has %d cells, table has %d columns", len(r), cols)
		}
	}
	for _, r := range rows {
		s.tbl.Append(r...)
	}
	lo := s.rows
	if s.report == nil || s.dirty {
		// No validated pattern to extend (the previous clean failed), or the
		// session took degraded decisions replay cannot reproduce.
		return c.recleanFromBase(ctx, "unreplayable-session", len(rows))
	}
	if s.in != nil {
		s.in.Extend(s.tbl)
	}
	p, reason := c.replayPattern(ctx)
	if p == nil {
		return c.recleanFromBase(ctx, reason, len(rows))
	}
	return c.appendDelta(ctx, p, lo)
}

// replayPattern re-derives the validated pattern for the current merged
// table: discovery runs in full against the session's KB snapshot (exactly
// the candidates a batch run would rank), then MUVF replays from the memoised
// crowd decisions. A nil return is drift: the memo lacked a decision the new
// candidate set needs, or the replayed winner is not the session's pattern.
func (c *Cleaner) replayPattern(ctx context.Context) (*Pattern, string) {
	s := c.session
	if s.baseStats == nil {
		s.baseStats = kbstats.New(s.base)
		s.baseResolver = resolve.New(s.base, c.opts.Threshold)
	}
	cands := discovery.GenerateParallel(s.tbl, s.baseStats, c.discoveryOptions(s.baseResolver, nil), c.opts.Workers)
	candidates := discovery.TopK(cands, c.opts.TopK)
	if len(candidates) == 0 {
		return nil, "no-pattern"
	}
	var p *Pattern
	if c.opts.ValidationOracle == nil {
		p = candidates[0]
	} else {
		v := c.validator(ctx, s.base, s.tbl)
		v.Memo, v.Replay = s.memo, true
		res := v.MUVF(candidates)
		if v.Missed || res.Degraded || res.Pattern == nil {
			return nil, "validation-memo-miss"
		}
		p = res.Pattern
	}
	p = c.withPathEdges(p, cands)
	if p.Key() != s.patternKey {
		return nil, "pattern-shift"
	}
	return p, ""
}

// appendDelta runs the batch annotate and repair stages over only the delta
// rows [lo, n), inside the shared run scaffold, and folds the outcome into
// the cumulative report.
func (c *Cleaner) appendDelta(ctx context.Context, p *Pattern, lo int) (*Report, error) {
	s := c.session
	t := s.tbl
	return c.run(ctx, "append", t, s.in, t.NumRows()-lo, func(ctx context.Context, tel *telemetry.Pipeline, root *telemetry.Span) (*Report, error) {
		c.crowd.ResetStats()
		kbBefore := c.kb.NumTriples()
		start := tel.StartStage(telemetry.StageAnnotate)
		ann := c.annotator(ctx, p, tel)
		ann.Interned = s.in
		ann.Session = s.ann
		if n := numUnits(t, s.in); len(s.cover) < n {
			grown := make([]*pattern.Match, n)
			copy(grown, s.cover)
			s.cover = grown
		}
		res := c.annotateRows(ann, t, s.cover, lo)
		tel.EndStage(telemetry.StageAnnotate, start)

		rep := s.report
		// The replayed pattern carries the merged table's discovery score —
		// what a batch run over the merged table reports.
		rep.Pattern = p
		s.patternKey = p.Key()
		rep.Annotations = append(rep.Annotations, res.Tuples...)
		rep.NewFacts = append(rep.NewFacts, res.NewFacts...)
		rep.Degraded.Tuples += res.DegradedTuples
		newErrs := res.Errors()
		s.errs = append(s.errs, newErrs...)

		// Delta enrichment stales every earlier repair ranking: a batch run
		// builds its index from the final KB, so re-rank everything.
		// Otherwise the cached index still matches the KB and only the delta
		// ranks.
		enriched := c.kb.NumTriples() != kbBefore
		if ctx.Err() != nil {
			rep.Degraded.RepairsSkipped = true
			tel.Inc(telemetry.DegradedDecisions)
		} else if len(p.Edges) > 0 {
			start = tel.StartStage(telemetry.StageRepair)
			c.sessionRepairs(rep, p, newErrs, enriched, tel)
			tel.EndStage(telemetry.StageRepair, start)
		} else {
			rep.Repairs = nil
		}

		dc := c.crowd.Stats()
		rep.Crowd = addCrowdStats(rep.Crowd, dc)
		rep.QuestionsAsked = rep.Crowd.Questions
		if res.DegradedTuples > 0 || rep.Degraded.RepairsSkipped {
			s.dirty = true
		}
		root.SetInt("questions", int64(dc.Questions))
		s.rows = t.NumRows()
		return rep, nil
	})
}

// sessionRepairs ranks erroneous rows against the session's cached repair
// index, rebuilding it when the KB moved past its stamp. With rerankAll the
// whole cumulative error set is re-ranked and the report's repair map
// replaced; otherwise only rows (the delta's errors) are added. Ranking is
// the batch stage's: one ranking per decision unit, fanned out across
// Options.Workers ranges.
func (c *Cleaner) sessionRepairs(rep *Report, p *Pattern, rows []int, rerankAll bool, tel *telemetry.Pipeline) {
	s := c.session
	if rerankAll {
		rows = s.errs
		rep.Repairs = nil
	}
	if rep.Repairs == nil {
		rep.Repairs = make(map[int][]Repair, len(rows))
	}
	if len(rows) == 0 {
		return
	}
	if s.repairIx == nil || s.repairStamp != c.kb.NumTriples() {
		s.repairIx = c.buildIndex(p, tel)
		s.repairStamp = c.kb.NumTriples()
	}
	c.rankRepairs(s.repairIx, s.tbl, rows, s.in, tel, c.opts.Provenance, rep.Repairs)
}

// recleanFromBase is the drift path: record the drift, rewind the KB to the
// session snapshot (plus any applied KB deltas) and run the full batch
// pipeline over the merged table — the increments' semantics, recomputed
// from scratch. The snapshot itself becomes the live KB: runClean's
// beginIncremental snapshots it again before anything can enrich it.
func (c *Cleaner) recleanFromBase(ctx context.Context, reason string, deltaRows int) (*Report, error) {
	s := c.session
	if rec := c.opts.Provenance; rec.Enabled() {
		// Reset at the start of runClean deliberately preserves drift events.
		rec.RecordDrift(reason, deltaRows)
	}
	c.kb = s.base
	c.stats = kbstats.New(c.kb)
	c.resolver = resolve.New(c.kb, c.opts.Threshold)
	rep, err := c.runClean(ctx, s.tbl)
	if err != nil && c.session != nil {
		// Leave the session usable: the table keeps its rows, and the next
		// increment re-attempts the full clean.
		c.session.dirty = true
	}
	return rep, err
}

// ApplyKBDelta folds new facts into the KB mid-session and reconciles the
// cumulative report, as if the session had started from the enlarged KB:
// the facts join the session's KB snapshot, and a recorded kb-delta re-clean
// runs the batch pipeline over the merged table from it. Returns the
// reconciled cumulative report.
func (c *Cleaner) ApplyKBDelta(adds []KBAddition) (*Report, error) {
	return c.ApplyKBDeltaContext(context.Background(), adds)
}

// ApplyKBDeltaContext is ApplyKBDelta bounded by ctx.
func (c *Cleaner) ApplyKBDeltaContext(ctx context.Context, adds []KBAddition) (*Report, error) {
	s := c.session
	if !c.opts.Incremental || s == nil {
		return nil, ErrNotIncremental
	}
	if len(adds) == 0 && s.report != nil {
		return s.report, nil
	}
	for _, a := range adds {
		obj := rdf.IRI(a.Object)
		if a.Literal {
			obj = rdf.Lit(a.Object)
		}
		s.base.AddFact(rdf.IRI(a.Subject), rdf.IRI(a.Predicate), obj)
	}
	return c.recleanFromBase(ctx, "kb-delta", 0)
}

// addCrowdStats sums two crowd accountings field-by-field.
func addCrowdStats(a, b CrowdStats) CrowdStats {
	out := a
	out.Questions += b.Questions
	out.Assignments += b.Assignments
	out.Retries += b.Retries
	out.Abandonments += b.Abandonments
	out.Timeouts += b.Timeouts
	out.Escalations += b.Escalations
	if len(b.ByKind) > 0 {
		merged := make(map[crowd.Kind]int, len(a.ByKind)+len(b.ByKind))
		for k, v := range a.ByKind {
			merged[k] = v
		}
		for k, v := range b.ByKind {
			merged[k] += v
		}
		out.ByKind = merged
	}
	return out
}
