package similarity

import (
	"math"
	"reflect"
	"testing"
)

// fuzzIndex is a fixed index covering the label shapes the trigram lookup
// has to handle: short strings, shared prefixes, duplicates, unicode,
// punctuation and the empty string.
func fuzzIndex() *Index {
	ix := NewIndex()
	for _, s := range []string{
		"Rome", "Roma", "Romania", "romanian", "Madrid", "Paris",
		"Pretoria", "Cape Town", "S. Africa", "South Africa",
		"UK", "United Kingdom", "Côte d'Ivoire",
		"Johannesburg", "Johannesburg", "Johannesburgh",
		"", "banana",
	} {
		ix.Add(s)
	}
	return ix
}

// FuzzSimilarityLookup feeds arbitrary queries through Index.Lookup and
// checks it against the reference scorer: no panic, Normalize idempotent,
// results sorted best-first with ascending-id tie-breaks and no duplicate
// ids, every hit's score within [threshold, 1] and equal to the reference
// Score of the query against the stored value, and the whole call
// deterministic.
func FuzzSimilarityLookup(f *testing.F) {
	ix := fuzzIndex()
	f.Add("Rome")
	f.Add("rome ")
	f.Add("Pretorria")
	f.Add("")
	f.Add("bananana")
	f.Add("Johannesburgh")
	f.Add("united  KINGDOM")
	f.Add("CÔTE D'IVOIRE")
	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 256 {
			t.Skip("similarity cost grows with length; bound the input")
		}
		n := Normalize(q)
		if again := Normalize(n); again != n {
			t.Fatalf("Normalize not idempotent: %q -> %q -> %q", q, n, again)
		}
		hits := ix.LookupNormalized(Normalize(q), DefaultThreshold)
		seen := map[int32]bool{}
		for i, h := range hits {
			if h.ID < 0 || int(h.ID) >= len(ix.values) {
				t.Fatalf("hit %d: id %d out of range", i, h.ID)
			}
			if seen[h.ID] {
				t.Fatalf("hit %d: duplicate id %d", i, h.ID)
			}
			seen[h.ID] = true
			if h.Score < DefaultThreshold || h.Score > 1 {
				t.Fatalf("hit %d: score %v outside [%v, 1]", i, h.Score, DefaultThreshold)
			}
			if ref := Score(q, ix.Value(h.ID)); math.Abs(h.Score-ref) > 1e-12 {
				t.Fatalf("hit %d (%q): lookup score %v != reference Score %v", i, ix.Value(h.ID), h.Score, ref)
			}
			if i > 0 {
				prev := hits[i-1]
				if h.Score > prev.Score {
					t.Fatalf("hit %d: score %v after %v — not best-first", i, h.Score, prev.Score)
				}
				if h.Score == prev.Score && h.ID <= prev.ID {
					t.Fatalf("hit %d: tie at %v not broken by ascending id", i, h.Score)
				}
			}
		}
		if again := ix.LookupNormalized(Normalize(q), DefaultThreshold); !reflect.DeepEqual(hits, again) {
			t.Fatalf("LookupNormalized(%q) is not deterministic:\n%v\nvs\n%v", q, hits, again)
		}
	})
}
