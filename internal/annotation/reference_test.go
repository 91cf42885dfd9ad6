package annotation

import (
	"reflect"
	"testing"

	"katara/internal/crowd"
	"katara/internal/fanout"
	"katara/internal/pattern"
	"katara/internal/provenance"
	"katara/internal/rdf"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// referenceAnnotate is the row-serial reference AnnotateRange must match:
// every row re-evaluates its coverage fresh against the live KB and runs
// annotateTuple, in row order. No coverage memo, no outcome reuse, no
// invalidation — only the dedup question memo, which is what the crowd
// would answer anyway.
func referenceAnnotate(a *Annotator, tbl *table.Table) *Result {
	res := &Result{}
	seen := map[string]bool{}
	if a.interned(tbl) != nil {
		a.qmemo = make(map[questionKey]memoAnswer)
		defer func() { a.qmemo = nil }()
	}
	a.provUnit = -1
	for row := range tbl.Rows {
		m := pattern.EvaluateWith(a.Pattern, a.KB, a.labels(), tbl.Rows[row], a.threshold())
		ta, _, _ := a.annotateTuple(tbl, row, m)
		if ta.Degraded {
			res.DegradedTuples++
		}
		res.Tuples = append(res.Tuples, ta)
		res.Breakdown.add(a.tally(ta))
		for _, f := range ta.NewFacts {
			if k := factKey(f); !seen[k] {
				seen[k] = true
				res.NewFacts = append(res.NewFacts, f)
			}
		}
	}
	return res
}

// refScenario builds a fresh KB, pattern, table and fact oracle; each run
// needs its own, because enrichment mutates the KB.
type refScenario func() (*rdf.Store, *pattern.Pattern, *table.Table, FactOracle)

// soccerKB is the Fig. 1 KB plus the entities the reference scenarios need:
// Pienaar (a person the KB gives no nationality), Zuma (labelled, South
// African, but untyped) and Xavi of Spain (whose capital the KB lacks).
func soccerKB() (*rdf.Store, *pattern.Pattern) {
	f := newFixture()
	kb := f.kb
	add := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	add("y:Pienaar", rdf.IRIType, "person")
	kb.AddFact(rdf.IRI("y:Pienaar"), rdf.IRI(rdf.IRILabel), rdf.Lit("Pienaar"))
	kb.AddFact(rdf.IRI("y:Zuma"), rdf.IRI(rdf.IRILabel), rdf.Lit("Zuma"))
	add("y:Zuma", "nationality", "y:SAfrica")
	for _, e := range [][2]string{{"y:Xavi", "person"}, {"y:Spain", "country"}} {
		add(e[0], rdf.IRIType, e[1])
		kb.AddFact(rdf.IRI(e[0]), rdf.IRI(rdf.IRILabel), rdf.Lit(e[0][2:]))
	}
	add("y:Xavi", "nationality", "y:Spain")
	return kb, f.pat
}

// soccerTruth is the real world of the soccer scenarios: Pienaar is not
// South African, and each country has its true capital. Typo'd cells are
// judged by the value they stand for.
type soccerTruth struct{ kb *rdf.Store }

func (soccerTruth) TypeHolds(string, rdf.ID) bool { return true }

func (o soccerTruth) RelHolds(subj string, prop rdf.ID, obj string) bool {
	canon := map[string]string{"S. Afrika": "S. Africa", "Zumaa": "Zuma"}
	if c, ok := canon[subj]; ok {
		subj = c
	}
	if c, ok := canon[obj]; ok {
		obj = c
	}
	switch prop {
	case o.kb.Res("hasCapital"):
		return map[string]string{"Italy": "Rome", "S. Africa": "Pretoria", "Spain": "Madrid"}[subj] == obj
	case o.kb.Res("nationality"):
		return subj != "Pienaar"
	}
	return false
}

func soccerScenario(rows ...[]string) refScenario {
	return func() (*rdf.Store, *pattern.Pattern, *table.Table, FactOracle) {
		kb, p := soccerKB()
		tbl := table.New("soccer", "A", "B", "C")
		for _, r := range rows {
			tbl.Append(r...)
		}
		return kb, p, tbl, soccerTruth{kb}
	}
}

// relationRows interleave duplicates with two relation enrichments
// (S. Africa hasCapital Pretoria, confirmed on row 2, and Spain hasCapital
// Madrid on row 11). Row 0's unit is decided erroneous before the first
// and must see the capital edge KB-covered after it; row 4's unit resolves
// "S. Afrika" fuzzily to the same resource, so only candidate-pair
// invalidation (not the enriching unit, nor the enriched cell values)
// reaches it. Row 11's unit is first evaluated after the first
// enrichment, and its own enrichment must still reach its coverage.
var relationRows = [][]string{
	{"Pienaar", "S. Africa", "Pretoria"},
	{"Rossi", "Italy", "Rome"},
	{"Klate", "S. Africa", "Pretoria"},
	{"Pienaar", "S. Africa", "Pretoria"},
	{"Klate", "S. Afrika", "Pretoria"},
	{"Klate", "S. Africa", "Pretoria"},
	{"Rossi", "Italy", "Rome"},
	{"Pirlo", "Italy", "Madrid"},
	{"Klate", "S. Afrika", "Pretoria"},
	{"Pirlo", "Italy", "Madrid"},
	{"Pienaar", "S. Africa", "Pretoria"},
	{"Xavi", "Spain", "Madrid"},
	{"Xavi", "Spain", "Madrid"},
}

// typeRows mix a type enrichment on an existing resource (Zuma is
// confirmed a person; "Zumaa" only resolves to Zuma once Zuma is typed)
// with minted resources (Mokoena and Botha are unknown to the KB).
var typeRows = [][]string{
	{"Zumaa", "S. Africa", "Pretoria"},
	{"Mokoena", "S. Africa", "Pretoria"},
	{"Zuma", "S. Africa", "Pretoria"},
	{"Zumaa", "S. Africa", "Pretoria"},
	{"Mokoena", "S. Africa", "Pretoria"},
	{"Botha", "Italy", "Rome"},
	{"Zuma", "S. Africa", "Pretoria"},
	{"Botha", "Italy", "Rome"},
	{"Zuma", "S. Africa", "Pretoria"},
	{"Botha", "Italy", "Rome"},
	{"Zumaa", "S. Africa", "Pretoria"},
}

// pathScenario has a pattern with one edge (city locatedIn country) and
// one path (person bornIn/locatedIn country). Enriching "Terrassa
// locatedIn Spain" on row 1 completes the path of row 0's unit, whose own
// edge pair (Barcelona, Spain) the fact does not touch.
func pathScenario() (*rdf.Store, *pattern.Pattern, *table.Table, FactOracle) {
	kb := rdf.New()
	add := func(s, p, o string) { kb.AddFact(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o)) }
	for _, e := range []struct{ iri, typ, label string }{
		{"y:Xavi", "person", "Xavi"},
		{"y:Pirlo", "person", "Pirlo"},
		{"y:Terrassa", "city", "Terrassa"},
		{"y:Barcelona", "city", "Barcelona"},
		{"y:Flero", "city", "Flero"},
		{"y:Spain", "country", "Spain"},
		{"y:Italy", "country", "Italy"},
	} {
		add(e.iri, rdf.IRIType, e.typ)
		kb.AddFact(rdf.IRI(e.iri), rdf.IRI(rdf.IRILabel), rdf.Lit(e.label))
	}
	add("y:Xavi", "bornIn", "y:Terrassa")
	add("y:Pirlo", "bornIn", "y:Flero")
	add("y:Barcelona", "locatedIn", "y:Spain")
	add("y:Flero", "locatedIn", "y:Italy")
	// Terrassa locatedIn Spain is missing (KB incompleteness).
	p := &pattern.Pattern{
		Nodes: []pattern.Node{
			{Column: 0, Type: kb.Res("person")},
			{Column: 1, Type: kb.Res("city")},
			{Column: 2, Type: kb.Res("country")},
		},
		Edges: []pattern.Edge{{From: 1, To: 2, Prop: kb.Res("locatedIn")}},
		Paths: []pattern.PathEdge{{
			From: 0, To: 2,
			Props: []rdf.ID{kb.Res("bornIn"), kb.Res("locatedIn")},
		}},
	}
	tbl := table.New("t", "Person", "City", "Country")
	for _, r := range [][]string{
		{"Xavi", "Barcelona", "Spain"},
		{"Xavi", "Terrassa", "Spain"},
		{"Xavi", "Barcelona", "Spain"},
		{"Pirlo", "Flero", "Italy"},
		{"Xavi", "Barcelona", "Spain"},
	} {
		tbl.Append(r...)
	}
	return kb, p, tbl, chainOracle{}
}

// literalScenario links a typed person column to an untyped year column.
// No KB resource is labelled "1979", so confirming Pirlo's birth year
// mints one: the new label literal gives Xavi's unit a year candidate
// although the enriched pair is Pirlo's.
func literalScenario() (*rdf.Store, *pattern.Pattern, *table.Table, FactOracle) {
	kb := rdf.New()
	for _, name := range []string{"Xavi", "Pirlo", "Rossi"} {
		kb.AddFact(rdf.IRI("y:"+name), rdf.IRI(rdf.IRIType), rdf.IRI("person"))
		kb.AddFact(rdf.IRI("y:"+name), rdf.IRI(rdf.IRILabel), rdf.Lit(name))
	}
	kb.AddFact(rdf.IRI("y:Rossi"), rdf.IRI("bornYear"), rdf.Lit("1977"))
	p := &pattern.Pattern{
		Nodes: []pattern.Node{{Column: 0, Type: kb.Res("person")}, {Column: 1, Type: rdf.NoID}},
		Edges: []pattern.Edge{{From: 0, To: 1, Prop: kb.Res("bornYear")}},
	}
	tbl := table.New("t", "Person", "Born")
	for _, r := range [][]string{
		{"Pirlo", "1979"},
		{"Xavi", "1979"},
		{"Rossi", "1977"},
		{"Xavi", "1979"},
		{"Pirlo", "1979"},
		{"Rossi", "1977"},
	} {
		tbl.Append(r...)
	}
	return kb, p, tbl, chainOracle{}
}

// annotateRun is one configuration of the comparison.
type annotateRun struct {
	dedup   bool
	upfront bool // fill the coverage memo by a fan-out first, as the cleaner does
	degrade DegradePolicy
	budget  int // crowd question budget; 0 = unlimited
}

func newRefAnnotator(sc refScenario, run annotateRun) (*Annotator, *table.Table) {
	kb, p, tbl, oracle := sc()
	cr := crowd.Perfect(5)
	if run.budget > 0 {
		cr.SetBudget(crowd.NewBudget(run.budget, 0))
	}
	a := &Annotator{
		KB: kb, Pattern: p, Crowd: cr, Oracle: oracle,
		Enrich: true, Degrade: run.degrade, Telemetry: telemetry.New(),
	}
	if run.dedup {
		a.Interned = tbl.Interned()
	}
	return a, tbl
}

// TestAnnotateRangeMatchesReference: per-unit outcome reuse and
// candidate-pair invalidation are pure optimisations — AnnotateRange
// produces exactly the row-serial reference's tuples, breakdown, facts,
// degradation count and crowd accounting, with and without dedup and an
// up-front coverage fan-out, under both degradation policies with a budget
// that runs out mid-table.
func TestAnnotateRangeMatchesReference(t *testing.T) {
	// budget is a crowd question budget each scenario exhausts mid-table.
	scenarios := map[string]struct {
		sc     refScenario
		budget int
	}{
		"relation": {soccerScenario(relationRows...), 3},
		"type":     {soccerScenario(typeRows...), 3},
		"path":     {pathScenario, 2},
		"literal":  {literalScenario, 1},
	}
	for name, s := range scenarios {
		var runs []annotateRun
		for _, dedup := range []bool{false, true} {
			for _, upfront := range []bool{false, true} {
				runs = append(runs, annotateRun{dedup: dedup, upfront: upfront})
				for _, degrade := range []DegradePolicy{DegradeTrustKB, DegradeMarkUnknown} {
					runs = append(runs, annotateRun{dedup, upfront, degrade, s.budget})
				}
			}
		}
		for _, run := range runs {
			ref, rtbl := newRefAnnotator(s.sc, run)
			want := referenceAnnotate(ref, rtbl)
			if run.budget > 0 && (want.DegradedTuples == 0 || want.DegradedTuples == rtbl.NumRows()) {
				t.Fatalf("%s %+v: %d of %d tuples degraded; the budget must run out mid-table",
					name, run, want.DegradedTuples, rtbl.NumRows())
			}

			got, tbl := newRefAnnotator(s.sc, run)
			units := tbl.NumRows()
			if in := got.interned(tbl); in != nil {
				units = in.NumGroups()
			}
			cover := make([]*pattern.Match, units)
			if run.upfront {
				got.KB.WarmClosures()
				all := allUnits(units)
				fanout.Run(units, 2, got.Telemetry, nil, func(r fanout.Range, tel *telemetry.Pipeline, _ *provenance.Recorder) {
					got.EvaluateCoverage(tbl, all[r.Lo:r.Hi], cover, tel)
				})
			}
			res := got.AnnotateRange(tbl, cover, 0, tbl.NumRows())

			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s %+v: AnnotateRange differs from the reference\ngot:  %+v\nwant: %+v", name, run, res, want)
			}
			if g, w := got.Crowd.Stats(), ref.Crowd.Stats(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s %+v: crowd stats %+v, reference %+v", name, run, g, w)
			}
			if g, w := got.Telemetry.Get(telemetry.CrowdQuestionsDeduped), ref.Telemetry.Get(telemetry.CrowdQuestionsDeduped); g != w {
				t.Fatalf("%s %+v: %d deduplicated questions, reference %d", name, run, g, w)
			}
			if g := got.Telemetry.Get(telemetry.TuplesAnnotated); g != int64(tbl.NumRows()) {
				t.Fatalf("%s %+v: TuplesAnnotated = %d, want one per row (%d)", name, run, g, tbl.NumRows())
			}
		}
	}
}

// TestReferenceScenariosExerciseEveryRule guards the reference test's
// fixtures: each scenario must actually enrich the KB, with the kind of
// change its invalidation rule is about, and dedup must reuse outcomes.
func TestReferenceScenariosExerciseEveryRule(t *testing.T) {
	for name, want := range map[string]struct {
		sc     refScenario
		global bool
	}{
		"relation": {soccerScenario(relationRows...), false},
		"type":     {soccerScenario(typeRows...), true},
		"path":     {pathScenario, false},
		"literal":  {literalScenario, true},
	} {
		a, tbl := newRefAnnotator(want.sc, annotateRun{dedup: true})
		a.qmemo = make(map[questionKey]memoAnswer)
		var change kbChange
		for row := range tbl.Rows {
			m := pattern.EvaluateWith(a.Pattern, a.KB, a.labels(), tbl.Rows[row], a.threshold())
			_, _, ch := a.annotateTuple(tbl, row, m)
			change.global = change.global || ch.global
			change.pairs = append(change.pairs, ch.pairs...)
		}
		if !change.changed() || change.global != want.global {
			t.Errorf("%s: enrichment change %+v, want global=%v", name, change, want.global)
		}

		b, tbl := newRefAnnotator(want.sc, annotateRun{dedup: true})
		b.Annotate(tbl)
		if d := b.Telemetry.Hist(telemetry.HistAnnotateTuple).Count(); d >= int64(tbl.NumRows()) {
			t.Errorf("%s: %d decisions for %d rows: no outcome was reused", name, d, tbl.NumRows())
		}
	}
}
