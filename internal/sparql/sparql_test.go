package sparql

import (
	"testing"

	"katara/internal/rdf"
)

// fixture builds the §1 running-example KB fragment.
func fixture() *rdf.Store {
	s := rdf.New()
	add := func(sub, pred, obj string) { s.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	lit := func(sub, pred, obj string) { s.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.Lit(obj)) }

	add("y:capital", rdf.IRISubClassOf, "y:city")
	add("y:city", rdf.IRISubClassOf, "y:location")
	add("y:country", rdf.IRISubClassOf, "y:location")
	add("y:soccerPlayer", rdf.IRISubClassOf, "y:person")
	add("y:hasCapital", rdf.IRISubPropertyOf, "y:locatedIn")

	for _, e := range []struct{ iri, typ, label string }{
		{"y:Rossi", "y:soccerPlayer", "Rossi"},
		{"y:Pirlo", "y:soccerPlayer", "Pirlo"},
		{"y:Italy", "y:country", "Italy"},
		{"y:Spain", "y:country", "Spain"},
		{"y:Rome", "y:capital", "Rome"},
		{"y:Madrid", "y:capital", "Madrid"},
	} {
		add(e.iri, rdf.IRIType, e.typ)
		lit(e.iri, rdf.IRILabel, e.label)
	}
	add("y:Italy", "y:hasCapital", "y:Rome")
	add("y:Spain", "y:hasCapital", "y:Madrid")
	add("y:Rossi", "y:nationality", "y:Italy")
	add("y:Pirlo", "y:nationality", "y:Italy")
	lit("y:Rossi", "y:height", "1.78")
	return s
}

func run(t *testing.T, s *rdf.Store, src string) *Result {
	t.Helper()
	res, err := NewEngine(s).Run(src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return res
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT WHERE { ?x ?p ?y }",
		"SELECT ?x { ?x ?p ?y ",
		"SELECT ?x { ?x ?p* ?y }", // star on variable predicate
		"FOO ?x { ?x ?p ?y }",
		"SELECT ?x { ?x <p> ?y } LIMIT x",
		"ASK { ?x <p> }",
		"SELECT ?x { ?x <p ?y }",
		"SELECT ?x { ?x <p> ?y } extra",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `SELECT DISTINCT ?c WHERE { ?x rdfs:label "Rome" . ?x rdf:type/rdfs:subClassOf* ?c } LIMIT 5`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct || q.Limit != 5 || len(q.Where) != 2 || len(q.Vars) != 1 {
		t.Fatalf("parsed %+v", q)
	}
	// Re-parse the printed form; must be stable.
	if _, err := Parse(q.String()); err != nil {
		t.Fatalf("re-parse of %q: %v", q.String(), err)
	}
}

func TestQTypes(t *testing.T) {
	// The paper's Q_types: types and supertypes of entities labelled t[Ai].
	s := fixture()
	res := run(t, s, `SELECT DISTINCT ?c WHERE {
		?x rdfs:label "Rome" .
		?x rdf:type/rdfs:subClassOf* ?c }`)
	want := map[string]bool{"y:capital": true, "y:city": true, "y:location": true}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d types, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		iri := s.Term(row["c"]).Value
		if !want[iri] {
			t.Errorf("unexpected type %s", iri)
		}
	}
}

func TestQRels1(t *testing.T) {
	// Q¹_rels: relationship between two resource-valued cells, with
	// sub-property generalisation.
	s := fixture()
	res := run(t, s, `SELECT DISTINCT ?P WHERE {
		?xi rdfs:label "Italy" .
		?xj rdfs:label "Rome" .
		?xi ?P/rdfs:subPropertyOf* ?xj }`)
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[s.Term(row["P"]).Value] = true
	}
	if !got["y:hasCapital"] {
		t.Errorf("expected hasCapital in %v", got)
	}
	// ?P binds the *first* hop, so only the asserted predicate appears; the
	// closure is on the tail of the path. hasCapital is asserted.
	if len(got) != 1 {
		t.Errorf("got %v, want exactly hasCapital", got)
	}
}

func TestQRels2(t *testing.T) {
	// Q²_rels: relationship to a literal cell.
	s := fixture()
	res := run(t, s, `SELECT ?P WHERE {
		?xi rdfs:label "Rossi" .
		?xi ?P/rdfs:subPropertyOf* "1.78" }`)
	if len(res.Rows) != 1 || s.Term(res.Rows[0]["P"]).Value != "y:height" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAsk(t *testing.T) {
	s := fixture()
	if !run(t, s, `ASK { y:Italy y:hasCapital y:Rome }`).Bool {
		t.Error("Italy hasCapital Rome should hold")
	}
	if run(t, s, `ASK { y:Italy y:hasCapital y:Madrid }`).Bool {
		t.Error("Italy hasCapital Madrid should not hold")
	}
	// Sub-property path: hasCapital ⊑ locatedIn.
	if !run(t, s, `ASK { y:Italy ?p/rdfs:subPropertyOf* y:Rome . FILTER(?p = y:hasCapital) }`).Bool {
		t.Error("filtered ASK failed")
	}
}

func TestAKeyword(t *testing.T) {
	s := fixture()
	res := run(t, s, `SELECT ?x WHERE { ?x a y:country }`)
	if len(res.Rows) != 2 {
		t.Fatalf("a-keyword: got %d countries, want 2", len(res.Rows))
	}
}

func TestStarIncludesZeroHops(t *testing.T) {
	s := fixture()
	// subClassOf* from capital includes capital itself.
	res := run(t, s, `SELECT ?c WHERE { y:capital rdfs:subClassOf* ?c }`)
	if len(res.Rows) != 3 { // capital, city, location
		t.Fatalf("got %d rows, want 3: %v", len(res.Rows), res.Rows)
	}
}

func TestBackwardEvaluation(t *testing.T) {
	s := fixture()
	// Object constant, subject variable: evaluated right-to-left.
	res := run(t, s, `SELECT ?x WHERE { ?x y:nationality y:Italy }`)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	// Backward through a path.
	res = run(t, s, `SELECT ?x WHERE { ?x y:nationality/y:hasCapital y:Rome }`)
	if len(res.Rows) != 2 {
		t.Fatalf("path backward: got %d rows, want 2", len(res.Rows))
	}
}

func TestBothEndsUnbound(t *testing.T) {
	s := fixture()
	res := run(t, s, `SELECT ?s ?o WHERE { ?s y:hasCapital ?o }`)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

func TestVariablePredicateBothEndsUnbound(t *testing.T) {
	s := fixture()
	res := run(t, s, `SELECT DISTINCT ?p WHERE { ?s ?p ?o }`)
	// type, label, subClassOf, subPropertyOf, hasCapital, nationality, height
	if len(res.Rows) != 7 {
		t.Fatalf("got %d predicates, want 7", len(res.Rows))
	}
}

func TestJoinAcrossPatterns(t *testing.T) {
	s := fixture()
	// Players whose nationality's capital is Rome.
	res := run(t, s, `SELECT ?player WHERE {
		?player y:nationality ?c .
		?c y:hasCapital y:Rome }`)
	if len(res.Rows) != 2 {
		t.Fatalf("join: got %d rows, want 2", len(res.Rows))
	}
}

func TestFilterNotEqual(t *testing.T) {
	s := fixture()
	res := run(t, s, `SELECT ?a ?b WHERE {
		?a rdf:type y:country .
		?b rdf:type y:country .
		FILTER(?a != ?b) }`)
	if len(res.Rows) != 2 { // (Italy,Spain) and (Spain,Italy)
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

func TestLimitAndDistinct(t *testing.T) {
	s := fixture()
	res := run(t, s, `SELECT ?x WHERE { ?x rdf:type ?t } LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("limit: got %d rows", len(res.Rows))
	}
	// Without DISTINCT, Rossi appears once per type; subClassOf* fan-out
	// would duplicate under projection.
	all := run(t, s, `SELECT ?c WHERE { y:Rossi rdf:type/rdfs:subClassOf* ?c }`)
	dis := run(t, s, `SELECT DISTINCT ?c WHERE { y:Rossi rdf:type/rdfs:subClassOf* ?c }`)
	if len(dis.Rows) != 2 { // soccerPlayer, person
		t.Fatalf("distinct rows = %d, want 2", len(dis.Rows))
	}
	if len(all.Rows) < len(dis.Rows) {
		t.Fatalf("non-distinct returned fewer rows than distinct")
	}
}

func TestConstantAbsentFromStore(t *testing.T) {
	s := fixture()
	res := run(t, s, `SELECT ?x WHERE { ?x rdfs:label "Atlantis" }`)
	if len(res.Rows) != 0 {
		t.Fatalf("expected no rows, got %v", res.Rows)
	}
	if run(t, s, `ASK { y:Atlantis y:hasCapital y:Rome }`).Bool {
		t.Error("absent constant matched")
	}
}

func TestUnboundStarStartRejected(t *testing.T) {
	s := fixture()
	_, err := NewEngine(s).Run(`SELECT ?x ?y WHERE { ?x rdfs:subClassOf* ?y }`)
	if err == nil {
		t.Fatal("expected unsupported-pattern error")
	}
}

func TestSelectStarProjectsAllVars(t *testing.T) {
	s := fixture()
	res := run(t, s, `SELECT * WHERE { ?x y:nationality ?c }`)
	if len(res.Vars) != 2 {
		t.Fatalf("vars = %v", res.Vars)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestSharedVariableAcrossPathAndEnds(t *testing.T) {
	s := fixture()
	// ?p used twice must bind consistently.
	res := run(t, s, `SELECT ?p WHERE {
		y:Italy ?p y:Rome .
		y:Spain ?p y:Madrid }`)
	if len(res.Rows) != 1 || s.Term(res.Rows[0]["p"]).Value != "y:hasCapital" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDeterministicOrdering(t *testing.T) {
	s := fixture()
	q := `SELECT ?x WHERE { ?x rdf:type y:country }`
	a := run(t, s, q)
	b := run(t, s, q)
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("nondeterministic row count")
	}
	for i := range a.Rows {
		if a.Rows[i]["x"] != b.Rows[i]["x"] {
			t.Fatal("nondeterministic row order")
		}
	}
}

func BenchmarkQTypes(b *testing.B) {
	s := fixture()
	eng := NewEngine(s)
	q, err := Parse(`SELECT DISTINCT ?c WHERE {
		?x rdfs:label "Rome" .
		?x rdf:type/rdfs:subClassOf* ?c }`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Eval(q); err != nil {
			b.Fatal(err)
		}
	}
}
