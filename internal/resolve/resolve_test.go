package resolve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"katara/internal/rdf"
	"katara/internal/similarity"
)

func newKB(t *testing.T) *rdf.Store {
	t.Helper()
	kb := rdf.New()
	for _, e := range []struct{ iri, label string }{
		{"ex:Rome", "Rome"},
		{"ex:Roma", "Roma"},
		{"ex:Madrid", "Madrid"},
		{"ex:Pretoria", "Pretoria"},
		{"ex:SouthAfrica", "South Africa"},
		{"ex:SouthAfrica", "S. Africa"}, // second label, same resource
	} {
		kb.AddFact(rdf.IRI(e.iri), rdf.IRI(rdf.IRILabel), rdf.Lit(e.label))
	}
	return kb
}

func TestResolveMatchesDirectLookup(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	queries := []string{
		"Rome", "rome", "ROME", "Roma", "Pretorria", "S. Africa",
		"s africa", "Madrid", "nowhere", "", "  Rome  ",
	}
	for _, q := range queries {
		want := kb.MatchLabel(q, similarity.DefaultThreshold)
		got := c.Resolve(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Resolve(%q) = %v, direct MatchLabel = %v", q, got, want)
		}
		// Second call comes from the memo and must be identical.
		if again := c.Resolve(q); !reflect.DeepEqual(again, want) {
			t.Errorf("memoized Resolve(%q) = %v, want %v", q, again, want)
		}
	}
}

func TestHitMissAccounting(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	c.Resolve("Rome")
	c.Resolve("Madrid")
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("after 2 distinct resolves: hits=%d misses=%d, want 0/2", hits, misses)
	}
	c.Resolve("Rome")
	c.Resolve("ROME")     // same normalized key: memo hit
	c.Resolve("  rome  ") // likewise
	if hits, misses := c.Stats(); hits != 3 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 3/2", hits, misses)
	}
}

func TestInvalidationAfterLabelAdd(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	if got := c.Resolve("Lisbon"); len(got) != 0 {
		t.Fatalf("Lisbon should not resolve yet: %v", got)
	}
	kb.AddFact(rdf.IRI("ex:Lisbon"), rdf.IRI(rdf.IRILabel), rdf.Lit("Lisbon"))
	want := kb.MatchLabel("Lisbon", similarity.DefaultThreshold)
	if len(want) == 0 {
		t.Fatal("direct lookup should now find Lisbon")
	}
	if got := c.Resolve("Lisbon"); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-enrichment Resolve = %v, want %v", got, want)
	}
	// Non-label triples must NOT flush the memo.
	hits0, _ := c.Stats()
	kb.AddFact(rdf.IRI("ex:Lisbon"), rdf.IRI(rdf.IRIType), rdf.IRI("ex:City"))
	c.Resolve("Lisbon")
	if hits, _ := c.Stats(); hits != hits0+1 {
		t.Fatalf("non-label Add flushed the memo: Resolve after it missed")
	}
}

func TestThresholdBypass(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	// A different threshold must fall through to the store uncached and
	// return exactly the direct answer.
	for _, th := range []float64{0.3, 0.9, 1.0} {
		want := kb.MatchLabel("Roma", th)
		if got := c.MatchLabel("Roma", th); !reflect.DeepEqual(got, want) {
			t.Errorf("MatchLabel(Roma, %.1f) = %v, want %v", th, got, want)
		}
	}
	if _, misses := c.Stats(); misses != 0 {
		t.Fatalf("bypass lookups must not touch the memo, misses=%d", misses)
	}
	// At the cache's own threshold MatchLabel memoizes.
	c.MatchLabel("Roma", similarity.DefaultThreshold)
	if _, misses := c.Stats(); misses != 1 {
		t.Fatalf("cache-threshold MatchLabel should memoize, misses=%d", misses)
	}
}

func TestConcurrentResolve(t *testing.T) {
	kb := newKB(t)
	for i := 0; i < 64; i++ {
		kb.AddFact(rdf.IRI(fmt.Sprintf("ex:e%d", i)), rdf.IRI(rdf.IRILabel),
			rdf.Lit(fmt.Sprintf("entity %d", i)))
	}
	c := New(kb, similarity.DefaultThreshold)
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = fmt.Sprintf("entity %d", i%16) // heavy key overlap
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				q := queries[(w*50+r)%len(queries)]
				got := c.Resolve(q)
				want := kb.MatchLabel(q, similarity.DefaultThreshold)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent Resolve(%q) = %v, want %v", q, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if hits, misses := c.Stats(); hits+misses != 8*50 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*50)
	}
}

func TestSourceInterface(t *testing.T) {
	kb := newKB(t)
	var s Source = kb
	var c Source = New(kb, similarity.DefaultThreshold)
	want := s.MatchLabel("Rome", similarity.DefaultThreshold)
	if got := c.MatchLabel("Rome", similarity.DefaultThreshold); !reflect.DeepEqual(got, want) {
		t.Fatalf("Source implementations disagree: %v vs %v", got, want)
	}
}

func TestPerLabelInvalidationKeepsUnrelatedEntries(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	// Warm the memo with values unrelated to the label we are about to add.
	warm := []string{"Rome", "Madrid", "Pretoria", "South Africa"}
	for _, q := range warm {
		c.Resolve(q)
	}
	hits0, _ := c.Stats()
	// An unrelated enrichment label: shares no similarity with the warm set.
	kb.AddFact(rdf.IRI("ex:Qux"), rdf.IRI(rdf.IRILabel), rdf.Lit("zzyqwv"))
	for _, q := range warm {
		want := kb.MatchLabel(q, similarity.DefaultThreshold)
		if got := c.Resolve(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("post-enrichment Resolve(%q) = %v, want %v", q, got, want)
		}
	}
	// Regression: the old cache flushed the whole memo on any LabelGen bump,
	// so these four lookups were all misses. Per-label invalidation must
	// keep every unrelated entry memoised.
	hits1, _ := c.Stats()
	if hits1-hits0 != int64(len(warm)) {
		t.Fatalf("unrelated enrichment evicted memo entries: got %d hits across re-resolve, want %d",
			hits1-hits0, len(warm))
	}
}

func TestPerLabelInvalidationEvictsAffectedEntries(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	// A fuzzy miss that the upcoming label will turn into a hit.
	if got := c.Resolve("Lisbonne"); len(got) != 0 {
		t.Fatalf("Lisbonne should not resolve yet: %v", got)
	}
	// And an exact-key entry for the label's own normalisation.
	if got := c.Resolve("Lisbon"); len(got) != 0 {
		t.Fatalf("Lisbon should not resolve yet: %v", got)
	}
	c.Resolve("Madrid") // unrelated; must survive
	kb.AddFact(rdf.IRI("ex:Lisbon"), rdf.IRI(rdf.IRILabel), rdf.Lit("Lisbon"))
	hits0, misses0 := c.Stats()
	for _, q := range []string{"Lisbon", "Lisbonne", "Madrid"} {
		want := kb.MatchLabel(q, similarity.DefaultThreshold)
		if got := c.Resolve(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("post-enrichment Resolve(%q) = %v, want %v", q, got, want)
		}
	}
	if got := c.Resolve("Lisbonne"); len(got) == 0 {
		t.Fatal("stale miss survived: Lisbonne must now fuzzily match Lisbon")
	}
	// The exact key and the fuzzy neighbour were evicted (one miss each);
	// the per-label path must not flush wholesale, so Madrid still hits.
	hits, misses := c.Stats()
	if misses-misses0 != 2 || hits-hits0 != 2 {
		t.Fatalf("after enrichment: %d misses, %d hits; want 2 (Lisbon, Lisbonne) and 2 (Madrid, Lisbonne again)",
			misses-misses0, hits-hits0)
	}
}

// TestPerLabelInvalidationDifferential pins the correctness contract: after
// ANY sequence of label additions, every cached answer equals the direct
// store lookup.
func TestPerLabelInvalidationDifferential(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	queries := []string{
		"Rome", "Roma", "rome", "Pretorria", "S. Africa", "Madrid",
		"Lisbon", "Lisbonne", "Porto", "zzz", "", "New Dehli", "entity 3",
	}
	adds := []string{"Lisbon", "Porto", "New Delhi", "entity 3", "Rome II", "unrelated qwx"}
	for _, q := range queries {
		c.Resolve(q)
	}
	for i, label := range adds {
		kb.AddFact(rdf.IRI(fmt.Sprintf("ex:new%d", i)), rdf.IRI(rdf.IRILabel), rdf.Lit(label))
		for _, q := range queries {
			want := kb.MatchLabel(q, similarity.DefaultThreshold)
			if got := c.Resolve(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("after adding %q: Resolve(%q) = %v, direct = %v", label, q, got, want)
			}
		}
	}
}

// TestLabelLogTruncationFallsBackToFlush: once the store's bounded label log
// slides past the cache's generation, sync must fall back to a wholesale
// flush — and still be correct.
func TestLabelLogTruncationFallsBackToFlush(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	c.Resolve("Rome")
	c.Resolve("Madrid")
	hits0, misses0 := c.Stats()
	// Push far past the log bound in one quiescent window.
	for i := 0; i < 9000; i++ {
		kb.AddFact(rdf.IRI(fmt.Sprintf("ex:bulk%d", i)), rdf.IRI(rdf.IRILabel),
			rdf.Lit(fmt.Sprintf("bulk label %d", i)))
	}
	for _, q := range []string{"Rome", "Madrid", "bulk label 4242"} {
		want := kb.MatchLabel(q, similarity.DefaultThreshold)
		if got := c.Resolve(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("post-truncation Resolve(%q) = %v, want %v", q, got, want)
		}
	}
	// The wholesale flush dropped the warm entries: every lookup missed.
	if hits, misses := c.Stats(); hits != hits0 || misses-misses0 != 3 {
		t.Fatalf("post-truncation: %d hits, %d misses; want 0 and 3", hits-hits0, misses-misses0)
	}
}

// TestPerLabelInvalidationRace exercises concurrent resolves racing the
// per-label sync path (run under -race): one goroutine wins flushMu and
// walks the reverse index while the rest insert fresh entries.
func TestPerLabelInvalidationRace(t *testing.T) {
	kb := newKB(t)
	c := New(kb, similarity.DefaultThreshold)
	queries := make([]string, 40)
	for i := range queries {
		queries[i] = fmt.Sprintf("city %d", i)
	}
	for round := 0; round < 8; round++ {
		// Single-writer window: enrich the KB while resolvers are quiescent.
		kb.AddFact(rdf.IRI(fmt.Sprintf("ex:c%d", round)), rdf.IRI(rdf.IRILabel),
			rdf.Lit(fmt.Sprintf("city %d", round)))
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < 25; r++ {
					q := queries[(w*25+r)%len(queries)]
					got := c.Resolve(q)
					want := kb.MatchLabel(q, similarity.DefaultThreshold)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("round %d: Resolve(%q) = %v, want %v", round, q, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
