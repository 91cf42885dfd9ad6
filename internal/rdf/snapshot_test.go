package rdf

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := fixture()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	n, err := s2.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != s.NumTriples() {
		t.Fatalf("loaded %d of %d triples", n, s.NumTriples())
	}
	s.ForEachTriple(func(tr Triple) {
		a := s2.LookupTerm(s.Term(tr.S))
		p := s2.LookupTerm(s.Term(tr.P))
		b := s2.LookupTerm(s.Term(tr.O))
		if a == NoID || p == NoID || b == NoID || !slices.Contains(s2.Objects(a, p), b) {
			t.Fatalf("triple lost: %v %v %v", s.Term(tr.S), s.Term(tr.P), s.Term(tr.O))
		}
	})
	// Derived structures behave identically.
	capital := s2.LookupTerm(IRI("y:capital"))
	location := s2.LookupTerm(IRI("y:location"))
	if !s2.IsSubClassOf(capital, location) {
		t.Fatal("hierarchy lost in snapshot")
	}
	rome := s2.LookupTerm(IRI("y:Rome"))
	if got := s2.LabelOf(rome); got != "Rome" {
		t.Fatalf("label index lost: %q", got)
	}
}

func TestSnapshotIntoNonEmptyStore(t *testing.T) {
	s := fixture()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	s2.AddFact(IRI("pre:existing"), IRI("p"), IRI("pre:other"))
	if _, err := s2.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s2.NumTriples() != s.NumTriples()+1 {
		t.Fatalf("triples = %d, want %d", s2.NumTriples(), s.NumTriples()+1)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a snapshot at all"),
		[]byte("KSNAP1\n"), // truncated after magic
	}
	for _, c := range cases {
		s := New()
		if _, err := s.ReadSnapshot(bytes.NewReader(c)); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
	// Corrupted triple index.
	s := fixture()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	corrupted := append([]byte(nil), raw[:len(raw)-1]...) // truncate
	s2 := New()
	if _, err := s2.ReadSnapshot(bytes.NewReader(corrupted)); err == nil {
		t.Error("truncated snapshot should error")
	}
}

func TestSnapshotPropertyRandomStores(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s := genStore(seed, 10, 40, 4, 120)
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		s2 := New()
		n, err := s2.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n != s.NumTriples() || s2.NumTriples() != s.NumTriples() {
			t.Fatalf("seed %d: %d vs %d triples", seed, s2.NumTriples(), s.NumTriples())
		}
	}
}

func TestSnapshotSmallerThanNTriples(t *testing.T) {
	s := genStore(1, 20, 200, 6, 800)
	var snap, nt bytes.Buffer
	if err := s.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteNTriples(&nt); err != nil {
		t.Fatal(err)
	}
	if snap.Len() >= nt.Len() {
		t.Fatalf("snapshot %d bytes, ntriples %d — expected smaller", snap.Len(), nt.Len())
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	s := genStore(2, 30, 2000, 8, 10000)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2 := New()
		if _, err := s2.ReadSnapshot(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNTriplesLoad(b *testing.B) {
	s := genStore(2, 30, 2000, 8, 10000)
	var buf bytes.Buffer
	if err := s.WriteNTriples(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2 := New()
		if _, err := s2.ParseNTriples(strings.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
