// Package annotation implements KATARA's data annotation (§6.1): each tuple
// is checked against the validated table pattern — fully covered by the KB
// (correct), partially covered and confirmed by the crowd (correct, and a
// new fact enriches the KB), or contradicted by the crowd (erroneous).
package annotation

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"katara/internal/crowd"
	"katara/internal/pattern"
	"katara/internal/provenance"
	"katara/internal/rdf"
	"katara/internal/similarity"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// Label classifies a tuple per §6.1.
type Label int

const (
	// ValidatedByKB: the tuple fully matches the pattern in the KB (case i).
	ValidatedByKB Label = iota
	// ValidatedByCrowd: the KB lacked coverage but the crowd confirmed every
	// missing piece (case ii).
	ValidatedByCrowd
	// Erroneous: the crowd rejected at least one missing piece (case iii).
	Erroneous
	// Unknown: the crowd could not be consulted (budget or deadline
	// exhausted) and the DegradeMarkUnknown policy is active. Unknown tuples
	// are neither trusted nor repaired.
	Unknown
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case ValidatedByKB:
		return "validated-by-kb"
	case ValidatedByCrowd:
		return "validated-by-kb-and-crowd"
	case Erroneous:
		return "erroneous"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Label(%d)", int(l))
	}
}

// Fact is a statement confirmed by the crowd that was missing from the KB —
// the KB-enrichment by-product (§6.1).
type Fact struct {
	IsType  bool
	Subject string   // cell value
	Type    rdf.ID   // when IsType
	Prop    rdf.ID   // when !IsType and Path is empty
	Path    []rdf.ID // §9 multi-hop fact: the property chain
	Object  string   // cell value, when !IsType
}

// TupleAnnotation is the per-tuple outcome. Under dedup, the rows of one
// decision unit that copy its settled outcome share the NodeByKB map and
// the EdgeByKB, PathByKB and NewFacts slices: they are read-only once
// returned, and callers must copy before modifying them.
type TupleAnnotation struct {
	Row   int
	Label Label
	// NodeByKB[col] / EdgeByKB[i] / PathByKB[i] report which conditions the
	// KB covered.
	NodeByKB map[int]bool
	EdgeByKB []bool
	PathByKB []bool
	// NewFacts are the crowd-confirmed facts for this tuple.
	NewFacts []Fact
	// Degraded marks a label decided under a graceful-degradation policy
	// (the crowd was unreachable: budget or deadline exhausted).
	Degraded bool
}

// Breakdown aggregates Table 5's fractions over values and relationships.
type Breakdown struct {
	TypeKB, TypeCrowd, TypeError int
	RelKB, RelCrowd, RelError    int
}

// TypeFractions returns (kb, crowd, error) fractions over typed values.
func (b Breakdown) TypeFractions() (kb, cr, er float64) {
	n := float64(b.TypeKB + b.TypeCrowd + b.TypeError)
	if n == 0 {
		return 0, 0, 0
	}
	return float64(b.TypeKB) / n, float64(b.TypeCrowd) / n, float64(b.TypeError) / n
}

// RelFractions returns (kb, crowd, error) fractions over relationships.
func (b Breakdown) RelFractions() (kb, cr, er float64) {
	n := float64(b.RelKB + b.RelCrowd + b.RelError)
	if n == 0 {
		return 0, 0, 0
	}
	return float64(b.RelKB) / n, float64(b.RelCrowd) / n, float64(b.RelError) / n
}

// Result is the outcome of annotating a table.
type Result struct {
	Tuples    []TupleAnnotation
	Breakdown Breakdown
	NewFacts  []Fact // deduplicated KB-enrichment facts
	// DegradedTuples counts tuples whose label was decided under a
	// graceful-degradation policy.
	DegradedTuples int
}

// Errors returns the rows labelled Erroneous.
func (r *Result) Errors() []int {
	var out []int
	for _, t := range r.Tuples {
		if t.Label == Erroneous {
			out = append(out, t.Row)
		}
	}
	return out
}

// FactOracle supplies real-world ground truth for the simulated crowd.
type FactOracle interface {
	// TypeHolds reports whether value truly is an instance of typ.
	TypeHolds(value string, typ rdf.ID) bool
	// RelHolds reports whether prop truly relates subj to obj.
	RelHolds(subj string, prop rdf.ID, obj string) bool
}

// PathOracle is optionally implemented by fact oracles that can verify the
// §9 multi-hop path facts. Oracles without it refute path facts.
type PathOracle interface {
	PathHolds(subj string, props []rdf.ID, obj string) bool
}

// DegradePolicy selects what happens to a tuple when the crowd can no
// longer be consulted (question budget or run deadline exhausted).
type DegradePolicy int

const (
	// DegradeTrustKB treats unanswered checks as KB incompleteness: the
	// tuple is accepted (ValidatedByCrowd, flagged Degraded), but no new
	// facts are minted from the unverified claims.
	DegradeTrustKB DegradePolicy = iota
	// DegradeMarkUnknown labels unanswered tuples Unknown: they are neither
	// trusted, enriched from, nor repaired.
	DegradeMarkUnknown
)

// String implements fmt.Stringer.
func (d DegradePolicy) String() string {
	switch d {
	case DegradeTrustKB:
		return "trust-kb"
	case DegradeMarkUnknown:
		return "mark-unknown"
	default:
		return fmt.Sprintf("DegradePolicy(%d)", int(d))
	}
}

// Annotator annotates tables against one validated pattern.
type Annotator struct {
	KB      *rdf.Store
	Pattern *pattern.Pattern
	Crowd   *crowd.Crowd
	Oracle  FactOracle
	// Ctx bounds the crowd interaction (nil = context.Background()); an
	// expired deadline triggers the Degrade policy for remaining tuples.
	Ctx context.Context
	// Degrade picks the policy for tuples whose crowd questions went
	// unanswered (budget or deadline exhausted).
	Degrade DegradePolicy
	// Threshold is the label-similarity threshold (default 0.7).
	Threshold float64
	// Enrich adds crowd-confirmed facts to the KB immediately, so later
	// occurrences of the same value validate without the crowd — the effect
	// that makes RelationalTables' KB share high in Table 5.
	Enrich bool
	// Telemetry receives the TuplesAnnotated / KBLookups / CrowdQuestions
	// counters; nil disables instrumentation.
	Telemetry *telemetry.Pipeline
	// Resolver, when non-nil, handles label resolution instead of direct
	// KB.MatchLabel calls — typically the resolve.Cache shared with discovery
	// and repair. It must resolve against the same KB; enrichment mutations
	// are picked up through the store's label generation, so cached coverage
	// stays consistent with direct evaluation.
	Resolver pattern.LabelSource
	// Interned, when non-nil, is the distinct-signature view of the table
	// being annotated (it must have been built from the same rows). The
	// decision unit is then the signature group instead of the row: step-1
	// KB coverage is evaluated once per group and shared by its duplicate
	// rows, crowd questions are memoized so one question answers every
	// duplicate, and a group's settled outcome is copied to its later rows.
	// Annotation outcomes are identical with or without it; only the
	// question count (and therefore crowd cost) drops. The question memo
	// lives for one AnnotateRange pass unless a Session carries it.
	Interned *table.Interned

	// Prov records each tuple's evidence lineage — the KB facts that
	// matched, the crowd checks issued and their question IDs, the verdict;
	// nil disables. Evidence is recorded per decision unit (the signature
	// group under dedup, the row otherwise) and fanned out on read.
	Prov *provenance.Recorder

	// Session, when non-nil, carries annotation memo state across passes:
	// the crowd-answer memo and the seen-facts set behind NewFacts dedup
	// live in the Session instead of the single pass. Incremental cleaning
	// annotates appended rows through AnnotateRange with the Session (and
	// the coverage memo) of the base run, which makes the delta pass behave
	// exactly like the suffix of one long batch pass: a delta row whose
	// signature (or question) was already decided reuses the cached
	// verdict, and facts already reported are not re-listed.
	Session *Session

	// qmemo caches crowd answers within one AnnotateRange pass (dedup mode
	// only). Keyed by prompt AND ground truth: two distinct KB terms can
	// share a display label, yielding identical prompts with different
	// truths. Degraded (unanswered) outcomes are never memoized — budget
	// and deadline exhaustion are transient, not properties of the question.
	qmemo map[questionKey]memoAnswer

	// provUnit is the decision unit the current tuple's evidence is
	// recorded under; negative while recording is off (disabled recorder,
	// or a duplicate row whose unit already carries a settled record).
	provUnit int
}

// questionKey identifies one crowd check for the dedup memo.
type questionKey struct {
	prompt string
	holds  bool
}

// memoAnswer is one memoized crowd answer plus the provenance ID of the
// question that produced it, so duplicate rows' evidence chains reference
// the original question.
type memoAnswer struct {
	yes bool
	qid int64
}

// Session is the annotation memo state shared by the passes of one
// incremental cleaning session (see Annotator.Session). The zero value is
// ready to use.
type Session struct {
	qmemo     map[questionKey]memoAnswer
	seenFacts map[string]bool
}

// labels returns the label-resolution source: the shared resolver when
// configured, the KB itself otherwise.
func (a *Annotator) labels() pattern.LabelSource {
	if a.Resolver != nil {
		return a.Resolver
	}
	return a.KB
}

// Annotate labels every tuple of tbl.
func (a *Annotator) Annotate(tbl *table.Table) *Result {
	return a.AnnotateRange(tbl, nil, 0, tbl.NumRows())
}

// threshold resolves the label-similarity threshold.
func (a *Annotator) threshold() float64 {
	if a.Threshold == 0 {
		return similarity.DefaultThreshold
	}
	return a.Threshold
}

// interned returns the distinct-signature view when it was built from
// tbl's rows, nil otherwise (a mismatched view is ignored).
func (a *Annotator) interned(tbl *table.Table) *table.Interned {
	if a.Interned != nil && a.Interned.NumRows() == tbl.NumRows() {
		return a.Interned
	}
	return nil
}

// EvaluateCoverage evaluates the step-1 KB coverage (§6.1) of the listed
// decision units into cover, which is indexed by unit: the signature group
// under Interned (evaluated once through its representative row), the row
// otherwise. Coverage is a pure function of the read-only KB, the pattern
// and the tuple, so disjoint unit lists may be evaluated concurrently —
// this is the per-range body of a coverage fan-out, and tel (one KBLookups
// per unit) may be a range-local pipeline merged by the caller. Call
// KB.WarmClosures() before fanning out: the lazily-memoised hierarchy
// closures must not be forced by racing workers.
func (a *Annotator) EvaluateCoverage(tbl *table.Table, units []int, cover []*pattern.Match, tel *telemetry.Pipeline) {
	threshold := a.threshold()
	labels := a.labels()
	in := a.interned(tbl)
	for _, u := range units {
		row := u
		if in != nil {
			row = in.Group(u).Rep
		}
		tel.Inc(telemetry.KBLookups)
		cover[u] = pattern.EvaluateWith(a.Pattern, a.KB, labels, tbl.Rows[row], threshold)
	}
}

// AnnotateRange labels rows [lo, hi) of tbl. cover is the unit-indexed
// step-1 coverage memo (see EvaluateCoverage; nil = a private memo for this
// pass): a unit's coverage is taken from it when present and otherwise
// evaluated inline and stored, so a caller may fill it concurrently
// beforehand. Step 2 — crowd consultation and enrichment — always runs
// serially in row order regardless of how cover was filled, which is the
// fan-out determinism argument: only the KB-pure coverage evaluation runs
// in parallel, so the result is identical for every worker count.
//
// Each decision unit is decided once per coverage state: under Interned, a
// later row of a unit whose decision settled (answered by KB and crowd,
// not degraded, no enrichment applied) copies that outcome instead of
// re-running annotateTuple — every check it would issue is a question-memo
// hit, so the replay could only reach the same verdict. An applied
// enrichment invalidates the coverage and outcome of exactly the units it
// can change (see unitMemo.invalidate). An incremental append pass annotates only
// the delta rows, with the Session and cover of the base run, so the pass
// is observationally the suffix of one batch run over the merged table.
func (a *Annotator) AnnotateRange(tbl *table.Table, cover []*pattern.Match, lo, hi int) *Result {
	threshold := a.threshold()
	seenFacts := map[string]bool{}
	if a.Session != nil {
		if a.Session.seenFacts == nil {
			a.Session.seenFacts = make(map[string]bool)
		}
		seenFacts = a.Session.seenFacts
	}
	in := a.interned(tbl)
	if cover == nil {
		units := tbl.NumRows()
		if in != nil {
			units = in.NumGroups()
		}
		cover = make([]*pattern.Match, units)
	}
	mem := &unitMemo{p: a.Pattern, cover: cover}
	// Dedup mode: crowd answers are memoized per question for the duration
	// of the pass (or the session, when one is attached). Outcomes are
	// identical either way; only the question count drops.
	if in != nil {
		// Only signature groups repeat within a pass: identity units keep
		// no outcomes.
		mem.decided = make([]*outcome, len(cover))
		if a.Session != nil {
			if a.Session.qmemo == nil {
				a.Session.qmemo = make(map[questionKey]memoAnswer)
			}
			a.qmemo = a.Session.qmemo
		} else {
			a.qmemo = make(map[questionKey]memoAnswer)
		}
		defer func() { a.qmemo = nil }()
	}
	if hi > tbl.NumRows() {
		hi = tbl.NumRows()
	}
	size := max(hi-lo, 0)
	if a.Session != nil {
		// Later passes of the session append their tuples to this pass's:
		// leave the headroom append growth would have, so the first of
		// them does not copy every earlier tuple.
		size += size / 4
	}
	res := &Result{Tuples: make([]TupleAnnotation, 0, size)}
	// units counts the coverage evaluations this pass ran inline (units the
	// memo lacked or an enrichment invalidated).
	var units, decisions, invalidated int64
	span := a.Telemetry.PushSpan("annotate-decide")
	a.provUnit = -1
	for row := lo; row < hi; row++ {
		unit := row
		if in != nil {
			unit = in.GroupOf(row)
		}
		if o := mem.outcome(unit); o != nil {
			// Re-deciding would replay o from question-memo hits: copy it,
			// and count the hits it stands for.
			ta := o.ta
			ta.Row = row
			res.Tuples = append(res.Tuples, ta)
			res.Breakdown.add(o.tally)
			a.Telemetry.Add(telemetry.CrowdQuestionsDeduped, o.asks)
			a.Telemetry.Inc(telemetry.TuplesAnnotated)
			continue
		}
		m := cover[unit]
		if m == nil {
			units++
			a.Telemetry.Inc(telemetry.KBLookups)
			m = pattern.EvaluateWith(a.Pattern, a.KB, a.labels(), tbl.Rows[row], threshold)
			mem.store(unit, m)
		}
		ta, asks, change := a.decide(tbl, row, unit, m)
		decisions++
		a.Telemetry.Inc(telemetry.TuplesAnnotated)
		if ta.Degraded {
			res.DegradedTuples++
			a.Telemetry.Inc(telemetry.DegradedDecisions)
		}
		tally := a.tally(ta)
		res.Tuples = append(res.Tuples, ta)
		res.Breakdown.add(tally)
		for _, f := range ta.NewFacts {
			k := factKey(f)
			if !seenFacts[k] {
				seenFacts[k] = true
				res.NewFacts = append(res.NewFacts, f)
			}
		}
		switch {
		case change.changed():
			invalidated += mem.invalidate(change)
		case mem.decided != nil && !ta.Degraded && ta.Label != Unknown:
			mem.decided[unit] = &outcome{ta: ta, asks: asks, tally: tally}
		}
	}
	span.SetInt("units", units)
	span.SetInt("decisions", decisions)
	span.SetInt("invalidated", invalidated)
	span.End()
	return res
}

// outcome is a decision unit's settled verdict within one AnnotateRange
// pass, copied to the unit's later rows while its coverage stands.
type outcome struct {
	ta TupleAnnotation
	// asks counts the crowd checks the decision issued: each is a memo hit
	// for a later row of the unit.
	asks  int64
	tally Breakdown
}

// decide runs §6.1 for one row whose unit has coverage m, under its own
// annotate-tuple span and timer (crowd-question spans attach as its
// children), and records the unit's provenance. It returns the tuple's
// annotation, the crowd checks it issued and what its enrichment added.
func (a *Annotator) decide(tbl *table.Table, row, unit int, m *pattern.Match) (TupleAnnotation, int64, kbChange) {
	tStart := a.Telemetry.StartTimer()
	tSpan := a.Telemetry.PushSpan("annotate-tuple")
	// Provenance is recorded once per decision unit: the first row of a
	// signature group writes the unit's evidence, duplicates share it on
	// read. A degraded record is retried — degradation is a property of
	// the run's remaining budget, not of the signature.
	a.provUnit = -1
	if a.Prov.Enabled() && a.Prov.BeginTuple(unit) {
		a.provUnit = unit
	}
	ta, asks, change := a.annotateTuple(tbl, row, m)
	if a.provUnit >= 0 {
		a.Prov.RecordVerdict(a.provUnit, ta.Label.String(), ta.Degraded, m.Full)
	}
	tSpan.SetInt("row", int64(row))
	tSpan.SetStr("label", ta.Label.String())
	tSpan.End()
	a.Telemetry.ObserveSince(telemetry.HistAnnotateTuple, tStart)
	return ta, asks, change
}

// tally is ta's Table 5 contribution. Unknown tuples count nowhere:
// nothing about them was established by either the KB or the crowd.
func (a *Annotator) tally(ta TupleAnnotation) Breakdown {
	var b Breakdown
	if ta.Label == Unknown {
		return b
	}
	count := func(byKB bool, kb, cr, er *int) {
		switch {
		case byKB:
			*kb++
		case ta.Label == Erroneous:
			*er++
		default:
			*cr++
		}
	}
	for _, n := range a.Pattern.Nodes {
		if n.Type != rdf.NoID {
			count(ta.NodeByKB[n.Column], &b.TypeKB, &b.TypeCrowd, &b.TypeError)
		}
	}
	for i := range a.Pattern.Edges {
		count(ta.EdgeByKB[i], &b.RelKB, &b.RelCrowd, &b.RelError)
	}
	for i := range a.Pattern.Paths {
		count(ta.PathByKB[i], &b.RelKB, &b.RelCrowd, &b.RelError)
	}
	return b
}

func (b *Breakdown) add(o Breakdown) {
	b.TypeKB += o.TypeKB
	b.TypeCrowd += o.TypeCrowd
	b.TypeError += o.TypeError
	b.RelKB += o.RelKB
	b.RelCrowd += o.RelCrowd
	b.RelError += o.RelError
}

// kbChange is what one decision's enrichment added to the KB.
type kbChange struct {
	// global marks an addition that can move any unit's coverage: a type
	// fact (HasType of label hits outside Candidates), a minted resource or
	// label (MatchLabel results — a new exact match can even shrink
	// Candidates through the match band), or a type, hierarchy or label
	// triple.
	global bool
	// pairs are the (subject, object) resources of relation facts added
	// between existing resources: each changes only HasPredicate(s, ·, o).
	pairs [][2]rdf.ID
}

func (c kbChange) changed() bool { return c.global || len(c.pairs) > 0 }

// unitMemo is one AnnotateRange pass's per-unit state.
type unitMemo struct {
	p     *pattern.Pattern
	cover []*pattern.Match // the caller's coverage memo
	// decided holds each unit's reusable outcome; nil when units cannot
	// repeat within the pass.
	decided []*outcome
	// bySubject indexes units by the subject candidates of their pattern
	// edges, so a relation fact visits only the units that can hold its
	// pair. It is built at the pass's first pair invalidation and indexes
	// every coverage stored after that; stale entries are harmless, since
	// each is re-checked against the unit's current coverage.
	bySubject map[rdf.ID][]int
}

func (mem *unitMemo) outcome(unit int) *outcome {
	if mem.decided == nil {
		return nil
	}
	return mem.decided[unit]
}

func (mem *unitMemo) store(unit int, m *pattern.Match) {
	mem.cover[unit] = m
	if mem.bySubject != nil {
		mem.index(unit, m)
	}
}

func (mem *unitMemo) index(unit int, m *pattern.Match) {
	for _, e := range mem.p.Edges {
		for _, s := range m.Candidates[e.From] {
			mem.bySubject[s] = append(mem.bySubject[s], unit)
		}
	}
}

// drop forgets unit's coverage and outcome, reporting whether it had any.
func (mem *unitMemo) drop(unit int) bool {
	if mem.cover[unit] == nil {
		return false
	}
	mem.cover[unit] = nil
	if mem.decided != nil {
		mem.decided[unit] = nil
	}
	return true
}

// invalidate drops the memoised coverage and reusable outcome of every
// unit change can affect, and returns how many units it dropped. A
// relation fact (s, p, o) between existing resources stales exactly the
// units with a pattern edge e such that s ∈ Candidates[e.From] and o ∈
// Candidates[e.To]: only their edge checks and consistent assignment read
// HasPredicate(s, ·, o). A global change — or any change under a pattern
// with path edges, whose paths may route through any resource — drops
// every unit.
func (mem *unitMemo) invalidate(change kbChange) int64 {
	var n int64
	if change.global || len(mem.p.Paths) > 0 {
		for u := range mem.cover {
			if mem.drop(u) {
				n++
			}
		}
		return n
	}
	if mem.bySubject == nil {
		mem.bySubject = make(map[rdf.ID][]int)
		for u, m := range mem.cover {
			if m != nil {
				mem.index(u, m)
			}
		}
	}
	for _, p := range change.pairs {
		for _, u := range mem.bySubject[p[0]] {
			if m := mem.cover[u]; m != nil && mem.touches(m, change.pairs) {
				mem.drop(u)
				n++
			}
		}
	}
	return n
}

// touches reports whether some pattern edge of m has one of pairs among
// its endpoint candidates.
func (mem *unitMemo) touches(m *pattern.Match, pairs [][2]rdf.ID) bool {
	for _, e := range mem.p.Edges {
		subs, objs := m.Candidates[e.From], m.Candidates[e.To]
		for _, p := range pairs {
			if slices.Contains(subs, p[0]) && slices.Contains(objs, p[1]) {
				return true
			}
		}
	}
	return false
}

// ctx resolves the annotator's context.
func (a *Annotator) ctx() context.Context {
	if a.Ctx != nil {
		return a.Ctx
	}
	return context.Background()
}

// ask consults the crowd for one boolean check. degraded reports that the
// crowd was unreachable (budget or deadline exhausted): under
// DegradeTrustKB the check counts as confirmed (but unverified), under
// DegradeMarkUnknown the caller must mark the tuple Unknown.
//
// In dedup mode (qmemo active) a repeated question — a duplicate row's
// identical check — is answered from the memo without consuming crowd
// budget. Only answers the crowd actually delivered are memoized; a
// degraded outcome is a property of the run's remaining budget, not of the
// question, so it is re-attempted every time.
// qid is the provenance ID of the question that decided the check (the
// memoized original on a memo hit; 0 when provenance is disabled) and memo
// reports a memo hit.
func (a *Annotator) ask(prompt string, holds bool) (confirmed, degraded bool, qid int64, memo bool) {
	if a.qmemo != nil {
		if ans, ok := a.qmemo[questionKey{prompt, holds}]; ok {
			a.Telemetry.Inc(telemetry.CrowdQuestionsDeduped)
			return ans.yes, false, ans.qid, true
		}
	}
	yes, err := a.Crowd.AskBooleanContext(a.ctx(), prompt, holds)
	qid = a.Prov.LastQuestionID()
	if err != nil {
		return a.Degrade == DegradeTrustKB, true, qid, false
	}
	if a.qmemo != nil {
		a.qmemo[questionKey{prompt, holds}] = memoAnswer{yes: yes, qid: qid}
	}
	return yes, false, qid, false
}

// recordCheck records one evidence check for the current decision unit.
// c1/c2 are the concerned columns (-1 = absent).
func (a *Annotator) recordCheck(kind string, c1, c2 int, desc string, qid int64, source string, confirmed bool) {
	if a.provUnit < 0 || !a.Prov.Enabled() {
		return
	}
	var cols []int
	if c1 >= 0 {
		cols = append(cols, c1)
	}
	if c2 >= 0 {
		cols = append(cols, c2)
	}
	a.Prov.RecordCheck(a.provUnit, kind, source, cols, desc, qid, confirmed)
}

// recordKBEvidence records the pattern pieces the KB itself covered for the
// current tuple — the "validated by KB" half of the evidence chain.
func (a *Annotator) recordKBEvidence(tuple []string, m *pattern.Match) {
	for _, n := range a.Pattern.Nodes {
		if n.Type == rdf.NoID || !m.NodeOK[n.Column] || n.Column >= len(tuple) {
			continue
		}
		desc := fmt.Sprintf("%q is a %s", tuple[n.Column], a.KB.LabelOf(n.Type))
		a.recordCheck("node", n.Column, -1, desc, 0, "kb", true)
	}
	for i, e := range a.Pattern.Edges {
		if !m.EdgeOK[i] || e.From >= len(tuple) || e.To >= len(tuple) {
			continue
		}
		desc := fmt.Sprintf("%q %s %q", tuple[e.From], a.KB.LabelOf(e.Prop), tuple[e.To])
		a.recordCheck("edge", e.From, e.To, desc, 0, "kb", true)
	}
	for i, pe := range a.Pattern.Paths {
		if !m.PathOK[i] || pe.From >= len(tuple) || pe.To >= len(tuple) {
			continue
		}
		desc := fmt.Sprintf("%q relates to %q through %s",
			tuple[pe.From], tuple[pe.To], pathLabel(a.KB, pe.Props))
		a.recordCheck("path", pe.From, pe.To, desc, 0, "kb", true)
	}
}

func factKey(f Fact) string {
	if f.IsType {
		return fmt.Sprintf("t|%s|%d", similarity.Normalize(f.Subject), f.Type)
	}
	if len(f.Path) > 0 {
		return fmt.Sprintf("p|%s|%v|%s", similarity.Normalize(f.Subject), f.Path, similarity.Normalize(f.Object))
	}
	return fmt.Sprintf("r|%s|%d|%s", similarity.Normalize(f.Subject), f.Prop, similarity.Normalize(f.Object))
}

// annotateTuple runs §6.1's two steps for one tuple, with the step-1 KB
// coverage m already evaluated (possibly by a coverage fan-out). It also
// returns the number of crowd checks it issued and what enrichment added
// to the KB.
func (a *Annotator) annotateTuple(tbl *table.Table, row int, m *pattern.Match) (ta TupleAnnotation, asks int64, change kbChange) {
	ta = TupleAnnotation{Row: row, NodeByKB: map[int]bool{}}
	tuple := tbl.Rows[row]

	for col, ok := range m.NodeOK {
		ta.NodeByKB[col] = ok
	}
	ta.EdgeByKB = append([]bool(nil), m.EdgeOK...)
	ta.PathByKB = append([]bool(nil), m.PathOK...)
	if a.provUnit >= 0 {
		a.recordKBEvidence(tuple, m)
	}
	if m.Full {
		ta.Label = ValidatedByKB
		return ta, 0, change
	}

	// Step 2: validation by KB + crowd for each missing node and edge. The
	// crowd can become unreachable mid-tuple (budget/deadline exhausted);
	// confirm then applies the degradation policy: trust-KB answers "yes"
	// without minting a fact, mark-unknown aborts the tuple.
	unknown := false
	confirm := func(kind string, c1, c2 int, prompt string, holds bool) (confirmed, verified bool) {
		if unknown {
			return false, false
		}
		asks++
		yes, degraded, qid, memo := a.ask(prompt, holds)
		if degraded {
			ta.Degraded = true
			if a.Degrade == DegradeMarkUnknown {
				unknown = true
				confirmed, verified = false, false
			} else {
				confirmed, verified = true, false
			}
		} else {
			confirmed, verified = yes, yes
		}
		if a.provUnit >= 0 {
			source := "crowd"
			switch {
			case degraded:
				source = "degraded"
			case memo:
				source = "memo"
			}
			a.recordCheck(kind, c1, c2, prompt, qid, source, confirmed)
		}
		return confirmed, verified
	}
	allConfirmed := true
	for _, n := range a.Pattern.Nodes {
		if unknown {
			break
		}
		if n.Type == rdf.NoID || m.NodeOK[n.Column] || n.Column >= len(tuple) {
			continue
		}
		val := tuple[n.Column]
		holds := a.Oracle != nil && a.Oracle.TypeHolds(val, n.Type)
		prompt := fmt.Sprintf("Is %q a %s?", val, a.KB.LabelOf(n.Type))
		confirmed, verified := confirm("node", n.Column, -1, prompt, holds)
		if verified {
			ta.NewFacts = append(ta.NewFacts, Fact{IsType: true, Subject: val, Type: n.Type})
		}
		if !confirmed && !unknown {
			allConfirmed = false
		}
	}
	for i, e := range a.Pattern.Edges {
		if unknown {
			break
		}
		if m.EdgeOK[i] || e.From >= len(tuple) || e.To >= len(tuple) {
			continue
		}
		sv, ov := tuple[e.From], tuple[e.To]
		holds := a.Oracle != nil && a.Oracle.RelHolds(sv, e.Prop, ov)
		prompt := fmt.Sprintf("Does %q %s %q?", sv, a.KB.LabelOf(e.Prop), ov)
		confirmed, verified := confirm("edge", e.From, e.To, prompt, holds)
		if verified {
			ta.NewFacts = append(ta.NewFacts, Fact{Subject: sv, Prop: e.Prop, Object: ov})
		}
		if !confirmed && !unknown {
			allConfirmed = false
		}
	}

	for i, pe := range a.Pattern.Paths {
		if unknown {
			break
		}
		if m.PathOK[i] || pe.From >= len(tuple) || pe.To >= len(tuple) {
			continue
		}
		sv, ov := tuple[pe.From], tuple[pe.To]
		holds := false
		if po, ok := a.Oracle.(PathOracle); ok {
			holds = po.PathHolds(sv, pe.Props, ov)
		}
		prompt := fmt.Sprintf("Is %q related to %q through %s?",
			sv, ov, pathLabel(a.KB, pe.Props))
		confirmed, verified := confirm("path", pe.From, pe.To, prompt, holds)
		if verified {
			ta.NewFacts = append(ta.NewFacts, Fact{Subject: sv, Path: pe.Props, Object: ov})
		}
		if !confirmed && !unknown {
			allConfirmed = false
		}
	}

	// The KB failed to validate the tuple as a whole, so edges that appear
	// to hold individually cannot be trusted either: with ambiguous labels
	// an edge can "hold" through candidate resources inconsistent with the
	// rest of the tuple (e.g. a fuzzy-matched homonym club grounded in the
	// claimed city). Every such edge is verified by the crowd before the
	// tuple is accepted.
	if allConfirmed && !unknown {
		for i, e := range a.Pattern.Edges {
			if unknown {
				break
			}
			if !m.EdgeOK[i] || e.From >= len(tuple) || e.To >= len(tuple) {
				continue // missing edges were already asked above
			}
			sv, ov := tuple[e.From], tuple[e.To]
			holds := a.Oracle != nil && a.Oracle.RelHolds(sv, e.Prop, ov)
			prompt := fmt.Sprintf("Does %q %s %q?", sv, a.KB.LabelOf(e.Prop), ov)

			if confirmed, _ := confirm("recheck", e.From, e.To, prompt, holds); !confirmed && !unknown {
				allConfirmed = false
				ta.EdgeByKB[i] = false
			}
		}
	}

	if unknown {
		ta.Label = Unknown
		ta.NewFacts = nil // nothing about the tuple was established
		return ta, asks, change
	}

	if allConfirmed {
		ta.Label = ValidatedByCrowd
		if a.Enrich {
			for _, f := range ta.NewFacts {
				a.apply(f, &change)
			}
		}
	} else {
		ta.Label = Erroneous
		ta.NewFacts = nil // facts from an erroneous tuple are not trusted
	}
	return ta, asks, change
}

func pathLabel(kb *rdf.Store, props []rdf.ID) string {
	parts := make([]string, len(props))
	for i, p := range props {
		parts[i] = kb.LabelOf(p)
	}
	return strings.Join(parts, " then ")
}

// apply adds a confirmed fact to the KB, minting resources as needed, and
// records in change what the KB gained (a duplicate fact leaves it
// untouched). Multi-hop path facts are not applied: asserting the chain
// would require inventing the intermediate resource, which is §9's open
// "extending the structure of the KBs" problem.
func (a *Annotator) apply(f Fact, change *kbChange) {
	if len(f.Path) > 0 {
		return
	}
	kb := a.KB
	subj, minted := a.resourceFor(f.Subject)
	if f.IsType {
		if kb.Add(subj, kb.TypeID, f.Type) || minted {
			change.global = true
		}
		return
	}
	obj, mintedObj := a.resourceFor(f.Object)
	added := kb.Add(subj, f.Prop, obj)
	switch {
	case minted || mintedObj:
		change.global = true
	case !added:
	case f.Prop == kb.TypeID || f.Prop == kb.LabelID || f.Prop == kb.SubClassOfID || f.Prop == kb.SubPropertyOfID:
		change.global = true
	default:
		change.pairs = append(change.pairs, [2]rdf.ID{subj, obj})
	}
}

// resourceFor finds the best existing resource labelled like value, or mints
// a new one carrying the value as its label. The second return reports
// whether a resource was minted — a KB mutation in its own right, since the
// new exact-match label changes later MatchLabel results.
func (a *Annotator) resourceFor(value string) (rdf.ID, bool) {
	if hits := a.labels().MatchLabel(value, a.threshold()); len(hits) > 0 {
		return hits[0].Resource, false
	}
	r := a.KB.Res("enriched:" + similarity.Normalize(value))
	a.KB.AddFact(a.KB.Term(r), rdf.IRI(rdf.IRILabel), rdf.Lit(value))
	return r, true
}
