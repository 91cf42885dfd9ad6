package rdf

import (
	"reflect"
	"sort"
	"testing"
)

// Objects/Subjects (and the closure accessors) return slices shared with the
// store's indexes under a documented read-only contract. These tests pin the
// contract down: the read API must never mutate the shared slices, and a
// regression that sorts or rewrites one in place is caught by comparing the
// store's full triple stream against an untouched clone.

func buildAliasKB() *Store {
	s := New()
	add := func(sub, pred, obj Term) { s.AddFact(sub, pred, obj) }
	add(IRI("ex:City"), IRI(IRISubClassOf), IRI("ex:Place"))
	add(IRI("ex:Capital"), IRI(IRISubClassOf), IRI("ex:City"))
	add(IRI("ex:hasCapital"), IRI(IRISubPropertyOf), IRI("ex:hasCity"))
	add(IRI("ex:Rome"), IRI(IRIType), IRI("ex:Capital"))
	add(IRI("ex:Rome"), IRI(IRIType), IRI("ex:City"))
	add(IRI("ex:Milan"), IRI(IRIType), IRI("ex:City"))
	add(IRI("ex:Italy"), IRI("ex:hasCapital"), IRI("ex:Rome"))
	add(IRI("ex:Italy"), IRI("ex:hasCity"), IRI("ex:Milan"))
	add(IRI("ex:Italy"), IRI("ex:hasCity"), IRI("ex:Rome"))
	add(IRI("ex:Rome"), IRI(IRILabel), Lit("Rome"))
	add(IRI("ex:Milan"), IRI(IRILabel), Lit("Milan"))
	add(IRI("ex:Italy"), IRI(IRILabel), Lit("Italy"))
	return s
}

// renderTriples renders the store's triples by term value, independent of
// interned IDs, so stores built in different orders compare equal.
func renderTriples(s *Store) []string {
	var out []string
	s.ForEachTriple(func(t Triple) {
		out = append(out, s.Term(t.S).String()+" "+s.Term(t.P).String()+" "+s.Term(t.O).String())
	})
	sort.Strings(out)
	return out
}

// exerciseReadAPI runs every read-path accessor that hands out or walks
// shared slices — the operations the pipeline performs between writes.
func exerciseReadAPI(s *Store) {
	city := s.Res("ex:City")
	capital := s.Res("ex:Capital")
	place := s.Res("ex:Place")
	rome := s.Res("ex:Rome")
	italy := s.Res("ex:Italy")
	milan := s.Res("ex:Milan")
	hasCapital := s.Res("ex:hasCapital")
	hasCity := s.Res("ex:hasCity")

	s.Objects(italy, hasCity)
	s.Subjects(s.TypeID, city)
	s.PredicatesBetween(italy, rome)
	s.PredicatesBetweenSub(italy, rome)
	s.PredicatesBetweenSub(italy, milan)
	s.Description(italy)
	s.DirectTypes(rome)
	s.AllTypes(rome)
	s.HasType(rome, place)
	s.HasPredicate(italy, hasCity, rome)
	s.InstancesOf(city)
	s.InstancesOf(place)
	s.Classes()
	s.SuperClasses(capital)
	s.SubClasses(place)
	s.SuperProperties(hasCapital)
	s.SubProperties(hasCity)
	s.IsSubClassOf(capital, place)
	s.IsSubPropertyOf(hasCapital, hasCity)
	s.MatchLabel("Rome", 0.7)
	s.MatchLabel("Romme", 0.7)
	s.LabelsOf(rome)
	s.SubjectsWithPredicate(hasCity)
	s.Predicates()
}

func TestReadAPIDoesNotMutateSharedSlices(t *testing.T) {
	s := buildAliasKB()
	clone := s.Clone()
	wantTriples := renderTriples(clone)

	// Pin direct aliases of the shared slices and copy their contents: any
	// in-place reorder or rewrite by the read API shows up against the copy.
	italy := s.Res("ex:Italy")
	hasCity := s.Res("ex:hasCity")
	city := s.Res("ex:City")
	capital := s.Res("ex:Capital")
	objs := s.Objects(italy, hasCity)
	objsCopy := append([]ID(nil), objs...)
	subs := s.Subjects(s.TypeID, city)
	subsCopy := append([]ID(nil), subs...)
	sups := s.SuperClasses(capital)
	supsCopy := append([]ID(nil), sups...)

	exerciseReadAPI(s)

	if !reflect.DeepEqual(objs, objsCopy) {
		t.Errorf("Objects slice mutated: %v -> %v", objsCopy, objs)
	}
	if !reflect.DeepEqual(subs, subsCopy) {
		t.Errorf("Subjects slice mutated: %v -> %v", subsCopy, subs)
	}
	if !reflect.DeepEqual(sups, supsCopy) {
		t.Errorf("SuperClasses slice mutated: %v -> %v", supsCopy, sups)
	}
	if got := renderTriples(s); !reflect.DeepEqual(got, wantTriples) {
		t.Errorf("triple stream changed under read-only use:\ngot  %v\nwant %v", got, wantTriples)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := buildAliasKB()
	clone := s.Clone()
	before := renderTriples(clone)
	// Mutating the original must not leak into the clone through any shared
	// backing array.
	s.AddFact(IRI("ex:Italy"), IRI("ex:hasCity"), IRI("ex:Naples"))
	s.AddFact(IRI("ex:Naples"), IRI(IRILabel), Lit("Naples"))
	if got := renderTriples(clone); !reflect.DeepEqual(got, before) {
		t.Fatalf("clone changed when original was mutated:\ngot  %v\nwant %v", got, before)
	}
	if len(clone.MatchLabel("Naples", 0.7)) != 0 {
		t.Fatal("clone's label index leaked the original's new label")
	}
}

func TestClonePreservesIDs(t *testing.T) {
	s := buildAliasKB()
	clone := s.Clone()
	if len(clone.terms) != len(s.terms) {
		t.Fatalf("clone holds %d terms, want %d", len(clone.terms), len(s.terms))
	}
	for i, term := range s.terms {
		if got := clone.LookupTerm(term); got != ID(i) {
			t.Fatalf("term %v has ID %d in the clone, want %d", term, got, i)
		}
	}
	for _, q := range []string{"Rome", "Romme", "Milan", "Italy", "Itly"} {
		if got, want := clone.MatchLabel(q, 0.7), s.MatchLabel(q, 0.7); !reflect.DeepEqual(got, want) {
			t.Fatalf("MatchLabel(%q): clone %v, original %v", q, got, want)
		}
	}
	// The same additions on both stores mint the same IDs.
	for _, st := range []*Store{s, clone} {
		st.AddFact(IRI("ex:Naples"), IRI(IRIType), IRI("ex:City"))
		st.AddFact(IRI("ex:Naples"), IRI(IRILabel), Lit("Naples"))
	}
	for _, term := range []Term{IRI("ex:Naples"), Lit("Naples")} {
		if a, b := s.LookupTerm(term), clone.LookupTerm(term); a != b || a == NoID {
			t.Fatalf("%v minted ID %d in the original, %d in the clone", term, a, b)
		}
	}
	if got, want := clone.MatchLabel("Naples", 0.7), s.MatchLabel("Naples", 0.7); !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchLabel(Naples) after AddFact: clone %v, original %v", got, want)
	}
}
