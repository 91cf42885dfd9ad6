package rdf

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestParseNTriplesBasic(t *testing.T) {
	src := `
# a comment
<y:Italy> <rdf:type> <y:country> .
<y:Italy> <rdfs:label> "Italy" .
<y:Italy> <y:hasCapital> <y:Rome> .
<y:Italy> <y:motto> "Unità"@it .
<y:Rossi> <y:height> "1.78"^^<xsd:double> .
`
	s := New()
	n, err := s.ParseNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("added %d triples, want 5", n)
	}
	italy := s.LookupTerm(IRI("y:Italy"))
	if italy == NoID {
		t.Fatal("y:Italy missing")
	}
	if got := s.LabelOf(italy); got != "Italy" {
		t.Fatalf("label = %q", got)
	}
	motto := s.Objects(italy, s.Res("y:motto"))
	if len(motto) != 1 || s.Term(motto[0]).Value != "Unità" {
		t.Fatalf("motto = %v", motto)
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	bad := []string{
		`<a> <b> <c>`,             // missing dot
		`<a> "lit" <c> .`,         // literal predicate
		`<a> <b> .`,               // too few terms
		`<unterminated <b> <c> .`, // broken IRI... actually this parses as IRI "unterminated <b" — ensure some error or tolerated
		`"l" <b> <c> .`,           // literal subject is allowed? we allow literals only as S? Paper never needs it; accept error-free or not, but predicate rule must hold
		`<a> <b> "unterminated .`, // unterminated literal
	}
	for _, src := range []string{bad[0], bad[1], bad[2], bad[5]} {
		s := New()
		if _, err := s.ParseNTriples(strings.NewReader(src)); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	s := fixture()
	var buf bytes.Buffer
	if err := s.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	n, err := s2.ParseNTriples(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != s.NumTriples() {
		t.Fatalf("round trip added %d, want %d", n, s.NumTriples())
	}
	// Every original triple must exist in the copy.
	s.ForEachTriple(func(tr Triple) {
		a := s2.LookupTerm(s.Term(tr.S))
		p := s2.LookupTerm(s.Term(tr.P))
		b := s2.LookupTerm(s.Term(tr.O))
		if a == NoID || p == NoID || b == NoID || !slices.Contains(s2.Objects(a, p), b) {
			t.Fatalf("triple lost in round trip: %v %v %v",
				s.Term(tr.S), s.Term(tr.P), s.Term(tr.O))
		}
	})
	// And the copy must behave identically for reasoning.
	capital := s2.LookupTerm(IRI("y:capital"))
	location := s2.LookupTerm(IRI("y:location"))
	if !s2.IsSubClassOf(capital, location) {
		t.Fatal("hierarchy lost in round trip")
	}
}

func TestRoundTripEscapes(t *testing.T) {
	s := New()
	s.AddFact(IRI("y:X"), IRI(IRILabel), Lit("he said \"hi\"\nnewline\tand\\slash"))
	var buf bytes.Buffer
	if err := s.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if _, err := s2.ParseNTriples(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	x := s2.LookupTerm(IRI("y:X"))
	if got := s2.LabelsOf(x); len(got) != 1 || got[0] != "he said \"hi\"\nnewline\tand\\slash" {
		t.Fatalf("escape round trip = %q", got)
	}
}
