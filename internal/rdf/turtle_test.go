package rdf

import (
	"slices"
	"strings"
	"testing"
)

func TestParseTurtleBasic(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
# soccer fragment
ex:Italy a ex:Country ;
    rdfs:label "Italy", "Italia"@it ;
    ex:capital ex:Rome .
ex:Rome a ex:Capital ;
    rdfs:label "Rome" .
`
	s := New()
	n, err := s.ParseTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("added %d triples, want 6", n)
	}
	italy := s.LookupTerm(IRI("http://example.org/Italy"))
	if italy == NoID {
		t.Fatal("prefix expansion failed")
	}
	labels := s.LabelsOf(italy)
	if len(labels) != 2 {
		t.Fatalf("labels = %v", labels)
	}
	rome := s.LookupTerm(IRI("http://example.org/Rome"))
	capProp := s.LookupTerm(IRI("http://example.org/capital"))
	if rome == NoID || capProp == NoID || !slices.Contains(s.Objects(italy, capProp), rome) {
		t.Fatal("capital fact missing")
	}
	country := s.LookupTerm(IRI("http://example.org/Country"))
	if !s.HasType(italy, country) {
		t.Fatal("`a` keyword not mapped to rdf:type")
	}
}

func TestParseTurtleMultiLineStatement(t *testing.T) {
	src := `@prefix ex: <e/> .
ex:A
    ex:p ex:B ;
    ex:q ex:C ,
         ex:D .
`
	s := New()
	n, err := s.ParseTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("added %d, want 3", n)
	}
	a := s.LookupTerm(IRI("e/A"))
	q := s.LookupTerm(IRI("e/q"))
	if got := s.Objects(a, q); len(got) != 2 {
		t.Fatalf("object list parsed as %d objects", len(got))
	}
}

func TestParseTurtleDatatypesAndTags(t *testing.T) {
	src := `@prefix ex: <e/> .
ex:X ex:h "1.78"^^<http://www.w3.org/2001/XMLSchema#double> ;
     ex:n "deux"@fr ;
     ex:d "2020"^^xsd:gYear .
`
	s := New()
	n, err := s.ParseTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("added %d, want 3", n)
	}
	x := s.LookupTerm(IRI("e/X"))
	h := s.LookupTerm(IRI("e/h"))
	objs := s.Objects(x, h)
	if len(objs) != 1 || s.Term(objs[0]).Value != "1.78" {
		t.Fatalf("datatyped literal = %v", objs)
	}
}

func TestParseTurtleVocabularyShorthand(t *testing.T) {
	// rdf: and rdfs: names map onto the store's built-in vocabulary even
	// without declarations.
	src := `<e/Capital> rdfs:subClassOf <e/City> .
<e/Rome> rdf:type <e/Capital> .
`
	s := New()
	if _, err := s.ParseTurtle(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	rome := s.LookupTerm(IRI("e/Rome"))
	city := s.LookupTerm(IRI("e/City"))
	if !s.HasType(rome, city) {
		t.Fatal("vocabulary shorthand broken")
	}
}

func TestParseTurtleErrors(t *testing.T) {
	bad := []string{
		`ex:A ex:p ex:B`,          // missing final dot
		`@prefix ex <e/> .`,       // prefix name without colon
		`@prefix ex: e/ .`,        // prefix IRI not in angle brackets
		`<a> <p> .`,               // predicate without object
		`<a> "lit" <c> .`,         // literal predicate
		`"lit" <p> <c> .`,         // literal subject
		`<a> <p> "unterminated .`, // unterminated literal
		`<a> <p <c> .`,            // unterminated IRI
		`<a> <p> <b> <q> <c> .`,   // missing ';' between predicates
	}
	for _, src := range bad {
		s := New()
		if _, err := s.ParseTurtle(strings.NewReader(src)); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestTurtleAgainstNTriplesEquivalence(t *testing.T) {
	ttl := `@prefix y: <y/> .
y:Italy a y:country ; rdfs:label "Italy" ; y:hasCapital y:Rome .
y:Rome a y:capital ; rdfs:label "Rome" .
`
	nt := `<y/Italy> <rdf:type> <y/country> .
<y/Italy> <rdfs:label> "Italy" .
<y/Italy> <y/hasCapital> <y/Rome> .
<y/Rome> <rdf:type> <y/capital> .
<y/Rome> <rdfs:label> "Rome" .
`
	a := New()
	if _, err := a.ParseTurtle(strings.NewReader(ttl)); err != nil {
		t.Fatal(err)
	}
	b := New()
	if _, err := b.ParseNTriples(strings.NewReader(nt)); err != nil {
		t.Fatal(err)
	}
	if a.NumTriples() != b.NumTriples() {
		t.Fatalf("turtle %d triples vs ntriples %d", a.NumTriples(), b.NumTriples())
	}
	a.ForEachTriple(func(tr Triple) {
		s2 := b.LookupTerm(a.Term(tr.S))
		p2 := b.LookupTerm(a.Term(tr.P))
		o2 := b.LookupTerm(a.Term(tr.O))
		if s2 == NoID || p2 == NoID || o2 == NoID || !slices.Contains(b.Objects(s2, p2), o2) {
			t.Fatalf("triple mismatch: %v %v %v",
				a.Term(tr.S), a.Term(tr.P), a.Term(tr.O))
		}
	})
}
