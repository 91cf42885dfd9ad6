package rdf

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// Property-style tests over randomly generated stores: the index, closure
// and serialisation invariants the rest of the system leans on.

// genStore builds a random store with a layered class hierarchy (acyclic by
// construction) and random facts.
func genStore(seed int64, nClasses, nEntities, nProps, nFacts int) *Store {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	classes := make([]ID, nClasses)
	for i := range classes {
		classes[i] = s.Res("class" + itoa(i))
		if i > 0 {
			// Parent strictly earlier: guarantees a DAG.
			s.Add(classes[i], s.SubClassOfID, classes[rng.Intn(i)])
		}
	}
	props := make([]ID, nProps)
	for i := range props {
		props[i] = s.Res("prop" + itoa(i))
		if i > 0 && rng.Intn(3) == 0 {
			s.Add(props[i], s.SubPropertyOfID, props[rng.Intn(i)])
		}
	}
	ents := make([]ID, nEntities)
	for i := range ents {
		ents[i] = s.Res("ent" + itoa(i))
		s.Add(ents[i], s.TypeID, classes[rng.Intn(nClasses)])
		s.AddFact(s.Term(ents[i]), IRI(IRILabel), Lit("entity "+itoa(i)))
	}
	for i := 0; i < nFacts; i++ {
		s.Add(ents[rng.Intn(nEntities)], props[rng.Intn(nProps)], ents[rng.Intn(nEntities)])
	}
	return s
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestClosureTransitivityProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := genStore(seed, 20, 50, 5, 100)
		// Transitivity: a ⊑ b and b ⊑ c implies a ⊑ c.
		classes := s.Classes()
		for _, a := range classes {
			for _, b := range s.SuperClasses(a) {
				for _, c := range s.SuperClasses(b) {
					if !s.IsSubClassOf(a, c) {
						t.Fatalf("seed %d: transitivity broken %d ⊑ %d ⊑ %d", seed, a, b, c)
					}
				}
			}
		}
	}
}

func TestSubSuperDualityProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := genStore(seed, 15, 30, 4, 50)
		for _, a := range s.Classes() {
			for _, sup := range s.SuperClasses(a) {
				found := false
				for _, sub := range s.SubClasses(sup) {
					if sub == a {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d: %d in SuperClasses(%d) but not vice versa", seed, sup, a)
				}
			}
		}
	}
}

func TestInstancesSubsumptionProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := genStore(seed, 12, 40, 3, 60)
		// Instances of a subclass are instances of its superclasses.
		for _, c := range s.Classes() {
			inst := s.InstancesOf(c)
			for _, sup := range s.SuperClasses(c) {
				supInst := map[ID]bool{}
				for _, e := range s.InstancesOf(sup) {
					supInst[e] = true
				}
				for _, e := range inst {
					if !supInst[e] {
						t.Fatalf("seed %d: instance %d of %d missing from super %d", seed, e, c, sup)
					}
				}
			}
		}
	}
}

func TestCloneEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s := genStore(seed, 10, 30, 4, 80)
		c := s.Clone()
		if c.NumTriples() != s.NumTriples() {
			t.Fatalf("seed %d: clone has %d triples, want %d", seed, c.NumTriples(), s.NumTriples())
		}
		s.ForEachTriple(func(tr Triple) {
			a := c.LookupTerm(s.Term(tr.S))
			p := c.LookupTerm(s.Term(tr.P))
			b := c.LookupTerm(s.Term(tr.O))
			if a == NoID || p == NoID || b == NoID || !slices.Contains(c.Objects(a, p), b) {
				t.Fatalf("seed %d: clone lost a triple", seed)
			}
		})
	}
}

func TestNTriplesRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s := genStore(seed, 8, 25, 3, 50)
		var buf bytes.Buffer
		if err := s.WriteNTriples(&buf); err != nil {
			t.Fatal(err)
		}
		s2 := New()
		n, err := s2.ParseNTriples(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n != s.NumTriples() {
			t.Fatalf("seed %d: parsed %d of %d", seed, n, s.NumTriples())
		}
	}
}

func TestLiteralRoundTripQuick(t *testing.T) {
	// Arbitrary literal strings survive serialisation.
	f := func(val string) bool {
		if !utf8Valid(val) {
			return true
		}
		s := New()
		s.AddFact(IRI("x"), IRI(IRILabel), Lit(val))
		var buf bytes.Buffer
		if err := s.WriteNTriples(&buf); err != nil {
			return false
		}
		s2 := New()
		if _, err := s2.ParseNTriples(bytes.NewReader(buf.Bytes())); err != nil {
			return false
		}
		x := s2.LookupTerm(IRI("x"))
		if x == NoID {
			return false
		}
		ls := s2.LabelsOf(x)
		return len(ls) == 1 && ls[0] == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func utf8Valid(s string) bool {
	return strings.ToValidUTF8(s, "") == s
}

func TestMatchLabelAgreesWithExact(t *testing.T) {
	s := genStore(3, 10, 60, 3, 40)
	// Every exact label lookup must be found by the fuzzy matcher at
	// score 1, ranked first among its score class.
	for i := 0; i < 60; i++ {
		label := "entity " + itoa(i)
		exact := s.Subjects(s.LabelID, s.LookupTerm(Lit(label)))
		if len(exact) == 0 {
			continue
		}
		hits := s.MatchLabel(label, 0.7)
		if len(hits) == 0 {
			t.Fatalf("MatchLabel missed exact label %q", label)
		}
		if hits[0].Score != 1 {
			t.Fatalf("exact match not scored 1: %v", hits[0])
		}
	}
}
