package discovery

import (
	"fmt"
	"testing"

	"katara/internal/kbstats"
	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/table"
)

// testKB builds a KB rich enough for the Example 5–7 dynamics:
//   - countries (rare, coherent subjects of hasCapital) vs economies (broad)
//     vs the catch-all "thing";
//   - capitals ⊑ cities ⊑ things as objects;
//   - players with nationality facts;
//   - every entity also typed "thing" via the hierarchy, which is what makes
//     the Support baseline go wrong.
func testKB() *rdf.Store {
	s := rdf.New()
	add := func(sub, pred, obj string) { s.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	lit := func(sub, pred, obj string) { s.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.Lit(obj)) }

	add("country", rdf.IRISubClassOf, "thing")
	add("economy", rdf.IRISubClassOf, "thing")
	add("city", rdf.IRISubClassOf, "thing")
	add("capital", rdf.IRISubClassOf, "city")
	add("person", rdf.IRISubClassOf, "thing")

	countries := []struct{ name, capital string }{
		{"Italy", "Rome"}, {"Spain", "Madrid"}, {"France", "Paris"},
		{"Germany", "Berlin"}, {"Portugal", "Lisbon"}, {"Austria", "Vienna"},
		{"Greece", "Athens"}, {"Poland", "Warsaw"},
	}
	for _, c := range countries {
		add("c:"+c.name, rdf.IRIType, "country")
		add("c:"+c.name, rdf.IRIType, "economy")
		lit("c:"+c.name, rdf.IRILabel, c.name)
		add("cap:"+c.capital, rdf.IRIType, "capital")
		lit("cap:"+c.capital, rdf.IRILabel, c.capital)
		add("c:"+c.name, "hasCapital", "cap:"+c.capital)
	}
	// Extra economies (no capitals) and plain cities (not capitals).
	for i := 0; i < 20; i++ {
		e := fmt.Sprintf("econ%d", i)
		add("e:"+e, rdf.IRIType, "economy")
		lit("e:"+e, rdf.IRILabel, e)
		ci := fmt.Sprintf("town%d", i)
		add("t:"+ci, rdf.IRIType, "city")
		lit("t:"+ci, rdf.IRILabel, ci)
	}
	players := []struct{ name, country string }{
		{"Rossi", "Italy"}, {"Pirlo", "Italy"}, {"Xavi", "Spain"},
		{"Zidane", "France"}, {"Müller", "Germany"},
	}
	for _, p := range players {
		add("p:"+p.name, rdf.IRIType, "person")
		lit("p:"+p.name, rdf.IRILabel, p.name)
		add("p:"+p.name, "nationality", "c:"+p.country)
	}
	lit("p:Rossi", "height", "1.78")
	lit("p:Pirlo", "height", "1.77")
	return s
}

// countryCapitalTable builds the two-column table of Example 7 (B=country,
// C=capital).
func countryCapitalTable() *table.Table {
	t := table.New("bc", "B", "C")
	t.Append("Italy", "Rome")
	t.Append("Spain", "Madrid")
	t.Append("France", "Paris")
	t.Append("Germany", "Berlin")
	t.Append("Portugal", "Lisbon")
	return t
}

func testCandidates(t *testing.T) *Candidates {
	t.Helper()
	kb := testKB()
	stats := kbstats.New(kb)
	return Generate(countryCapitalTable(), stats, Options{})
}

func iri(t *testing.T, kb *rdf.Store, s string) rdf.ID {
	t.Helper()
	id := kb.LookupTerm(rdf.IRI(s))
	if id == rdf.NoID {
		t.Fatalf("missing %s", s)
	}
	return id
}

func TestGenerateCandidateTypes(t *testing.T) {
	c := testCandidates(t)
	kb := c.Stats.KB()
	b := c.ColumnFor(0)
	if b == nil {
		t.Fatal("no candidates for column B")
	}
	// country must outrank economy and thing thanks to tf-idf.
	if b.Types[0].Type != iri(t, kb, "country") {
		t.Fatalf("top type for B = %s", kb.LabelOf(b.Types[0].Type))
	}
	cc := c.ColumnFor(1)
	if cc.Types[0].Type != iri(t, kb, "capital") {
		t.Fatalf("top type for C = %s", kb.LabelOf(cc.Types[0].Type))
	}
	// Scores are normalised to (0,1] with the top at exactly 1.
	if b.Types[0].TFIDF != 1 {
		t.Fatalf("top tf-idf = %f, want 1", b.Types[0].TFIDF)
	}
	for _, st := range b.Types {
		if st.TFIDF < 0 || st.TFIDF > 1 {
			t.Fatalf("tf-idf out of range: %f", st.TFIDF)
		}
	}
}

func TestGenerateCandidateRels(t *testing.T) {
	c := testCandidates(t)
	kb := c.Stats.KB()
	pc := c.PairFor(0, 1)
	if pc == nil {
		t.Fatal("no relationship candidates for (B,C)")
	}
	if pc.Rels[0].Prop != iri(t, kb, "hasCapital") {
		t.Fatalf("top rel = %s", kb.LabelOf(pc.Rels[0].Prop))
	}
	if pc.Rels[0].Support != 5 {
		t.Fatalf("support = %d, want 5", pc.Rels[0].Support)
	}
	// The reverse direction has no hasCapital facts; fuzzy label noise may
	// surface stray low-support relationships (e.g. "Rome"≈"Rossi" at the
	// 0.7 threshold, the Lucene-style matcher's documented behaviour), but
	// never anything rivalling the forward pair.
	if rev := c.PairFor(1, 0); rev != nil {
		for _, r := range rev.Rels {
			if r.Prop == pc.Rels[0].Prop {
				t.Fatalf("hasCapital leaked into the reverse pair")
			}
			if r.Support >= pc.Rels[0].Support {
				t.Fatalf("reverse-pair rel %s support %d rivals forward %d",
					kb.LabelOf(r.Prop), r.Support, pc.Rels[0].Support)
			}
		}
	}
}

func TestGenerateLiteralRelationships(t *testing.T) {
	kb := testKB()
	stats := kbstats.New(kb)
	tbl := table.New("ph", "A", "G")
	tbl.Append("Rossi", "1.78")
	tbl.Append("Pirlo", "1.77")
	c := Generate(tbl, stats, Options{})
	pc := c.PairFor(0, 1)
	if pc == nil {
		t.Fatal("Q²_rels-style literal relationship not found")
	}
	if !pc.LiteralObject {
		t.Fatal("pair should be flagged literal-object")
	}
	if pc.Rels[0].Prop != iri(t, kb, "height") {
		t.Fatalf("top literal rel = %s", kb.LabelOf(pc.Rels[0].Prop))
	}
}

func TestGenerateDirtyCellsTolerated(t *testing.T) {
	kb := testKB()
	stats := kbstats.New(kb)
	tbl := countryCapitalTable()
	tbl.Rows[2][1] = "Madrid" // error: France->Madrid (still a capital)
	tbl.Rows[0][0] = "Itally" // typo, fuzzy-matches Italy
	c := Generate(tbl, stats, Options{})
	b := c.ColumnFor(0)
	if b.Types[0].Type != iri(t, kb, "country") {
		t.Fatal("dirty cells should not flip the top type")
	}
	pc := c.PairFor(0, 1)
	if pc == nil || pc.Rels[0].Prop != iri(t, kb, "hasCapital") {
		t.Fatal("dirty cells should not flip the top relationship")
	}
}

func TestMaxRowsSampling(t *testing.T) {
	kb := testKB()
	stats := kbstats.New(kb)
	tbl := countryCapitalTable()
	c := Generate(tbl, stats, Options{MaxRows: 2})
	if len(c.Rows) != 2 {
		t.Fatalf("sampled %d rows, want 2", len(c.Rows))
	}
	if c.ColumnFor(0) == nil {
		t.Fatal("sampling broke candidate generation")
	}
}

func TestMaxCandidatesCap(t *testing.T) {
	kb := testKB()
	stats := kbstats.New(kb)
	c := Generate(countryCapitalTable(), stats, Options{MaxCandidates: 1})
	for _, cc := range c.Columns {
		if len(cc.Types) > 1 {
			t.Fatalf("candidate cap violated: %d types", len(cc.Types))
		}
	}
}

func TestTopKPicksCoherentPattern(t *testing.T) {
	c := testCandidates(t)
	kb := c.Stats.KB()
	ps := TopK(c, 3)
	if len(ps) == 0 {
		t.Fatal("no patterns")
	}
	best := ps[0]
	if got := best.TypeOf(0); got != iri(t, kb, "country") {
		t.Fatalf("best pattern types B as %s", kb.LabelOf(got))
	}
	if got := best.TypeOf(1); got != iri(t, kb, "capital") {
		t.Fatalf("best pattern types C as %s", kb.LabelOf(got))
	}
	e := best.EdgeBetween(0, 1)
	if e == nil || e.Prop != iri(t, kb, "hasCapital") {
		t.Fatal("best pattern lacks hasCapital edge")
	}
	// Scores strictly ordered (ties allowed but non-increasing).
	for i := 1; i < len(ps); i++ {
		if ps[i].Score > ps[i-1].Score {
			t.Fatalf("patterns not score-ordered: %f > %f", ps[i].Score, ps[i-1].Score)
		}
	}
}

func TestTopKMatchesExhaustive(t *testing.T) {
	c := testCandidates(t)
	for _, k := range []int{1, 2, 5, 10} {
		fast := TopK(c, k)
		slow, err := ExhaustiveTopK(c, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(slow) {
			t.Fatalf("k=%d: rank-join %d patterns, exhaustive %d", k, len(fast), len(slow))
		}
		for i := range fast {
			if diff := fast[i].Score - slow[i].Score; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("k=%d rank %d: score %f vs %f", k, i, fast[i].Score, slow[i].Score)
			}
		}
	}
}

func TestScoreFunctionsAgreeWithSearch(t *testing.T) {
	c := testCandidates(t)
	ps := TopK(c, 3)
	for _, p := range ps {
		recomputed := Score(p, c)
		if diff := recomputed - p.Score; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Score() = %f, search said %f", recomputed, p.Score)
		}
		if NaiveScore(p, c) > recomputed {
			t.Fatal("naive score must not exceed full score (coherence ≥ 0)")
		}
	}
}

func TestCoherenceChangesRanking(t *testing.T) {
	// Example 5's point: with coherence, (country, capital, hasCapital)
	// must beat type choices that tf-idf alone might tie or confuse.
	c := testCandidates(t)
	kb := c.Stats.KB()
	full := TopK(c, 1)[0]
	if full.TypeOf(0) != iri(t, kb, "country") || full.TypeOf(1) != iri(t, kb, "capital") {
		t.Fatal("full scoring failed to pick the coherent pattern")
	}
	naive := TopKNaive(c, 10)
	// The naive top-10 must contain the coherent pattern but its ordering
	// does not use coherence, so full score of naive[0] ≤ full[0].
	if Score(naive[0], c) > full.Score+1e-9 {
		t.Fatal("rank-join missed a higher-scoring pattern")
	}
}

func TestSupportBaselinePrefersBroadTypes(t *testing.T) {
	c := testCandidates(t)
	kb := c.Stats.KB()
	ps := SupportTopK(c, 1)
	if len(ps) == 0 {
		t.Fatal("support baseline produced nothing")
	}
	got := ps[0].TypeOf(0)
	// Countries are all economies and things too, so support ties across
	// the chain and the naive tie-break picks the broadest type.
	if got == iri(t, kb, "country") {
		t.Fatalf("Support baseline should not pick the discriminative type; got %s",
			kb.LabelOf(got))
	}
}

func TestMaxLikeBaselinePicksRareCoveringType(t *testing.T) {
	c := testCandidates(t)
	kb := c.Stats.KB()
	ps := MaxLikeTopK(c, 1)
	if len(ps) == 0 {
		t.Fatal("maxlike produced nothing")
	}
	// MaxLike favours the rarest covering type: country (8 instances)
	// over economy (28) and thing (everything).
	if got := ps[0].TypeOf(0); got != iri(t, kb, "country") {
		t.Fatalf("MaxLike picked %s", kb.LabelOf(got))
	}
}

func TestPGMTopK(t *testing.T) {
	c := testCandidates(t)
	kb := c.Stats.KB()
	ps := PGMTopK(c, 3, PGMOptions{Iterations: 15})
	if len(ps) == 0 {
		t.Fatal("pgm produced nothing")
	}
	best := ps[0]
	// The holistic model should get the coherent pattern right here.
	if got := best.TypeOf(0); got != iri(t, kb, "country") {
		t.Fatalf("PGM typed B as %s", kb.LabelOf(got))
	}
	if e := best.EdgeBetween(0, 1); e == nil || e.Prop != iri(t, kb, "hasCapital") {
		t.Fatal("PGM missed the hasCapital edge")
	}
}

func TestPGMMaxCellsGuard(t *testing.T) {
	c := testCandidates(t)
	if ps := PGMTopK(c, 1, PGMOptions{MaxCells: 1}); ps != nil {
		t.Fatal("MaxCells guard did not trip")
	}
}

func TestTopKZeroAndEmpty(t *testing.T) {
	c := testCandidates(t)
	if ps := TopK(c, 0); ps != nil {
		t.Fatal("k=0 should return nil")
	}
	kb := testKB()
	stats := kbstats.New(kb)
	empty := table.New("e", "A")
	empty.Append("zzz-not-in-kb")
	c2 := Generate(empty, stats, Options{})
	if ps := TopK(c2, 3); len(ps) != 0 {
		t.Fatalf("uncoverable table produced %d patterns", len(ps))
	}
}

func TestPatternsAreDistinct(t *testing.T) {
	c := testCandidates(t)
	ps := TopK(c, 10)
	seen := map[string]bool{}
	for _, p := range ps {
		k := p.Key()
		if seen[k] {
			t.Fatalf("duplicate pattern: %s", k)
		}
		seen[k] = true
	}
}

func TestRankJoinEmitsConnectedComponentsViaPattern(t *testing.T) {
	c := testCandidates(t)
	p := TopK(c, 1)[0]
	if len(p.Columns()) != 2 || (p.EdgeBetween(0, 1) == nil && p.EdgeBetween(1, 0) == nil) {
		// Two columns joined by an edge must be connected.
		t.Fatalf("expected a connected two-column top pattern, got %+v", p)
	}
	var _ = pattern.Pattern{} // keep pattern import for clarity of intent
}

func TestRankJoinPrunesSearchSpace(t *testing.T) {
	// Hand-built candidate lists wide enough for pruning to show: 4 columns
	// × 8 types each = 4096 combinations, with clearly separated scores.
	c := &Candidates{Stats: kbstats.New(rdf.New())}
	id := rdf.ID(1)
	for col := 0; col < 4; col++ {
		cc := ColumnCandidates{Col: col}
		for i := 0; i < 8; i++ {
			cc.Types = append(cc.Types, ScoredType{
				Type:  id,
				TFIDF: 1.0 / float64(i+1),
			})
			id++
		}
		c.Columns = append(c.Columns, cc)
	}
	ps, stats := rankJoinStats(c, 3, 1)
	if len(ps) == 0 {
		t.Fatal("no patterns")
	}
	if stats.SpaceSize <= 1 {
		t.Fatalf("space size = %d", stats.SpaceSize)
	}
	// Algorithm 1's point: far fewer states expanded than the Cartesian
	// product scored by the exhaustive alternative.
	if stats.StatesExpanded >= stats.SpaceSize {
		t.Fatalf("rank join expanded %d states over a space of %d",
			stats.StatesExpanded, stats.SpaceSize)
	}
	if stats.StatesEnqueued < stats.StatesExpanded-1 {
		t.Fatalf("inconsistent stats: %+v", stats)
	}
}
