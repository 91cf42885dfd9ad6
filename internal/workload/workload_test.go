package workload

import (
	"testing"

	"katara/internal/kbstats"
	"katara/internal/rdf"
	"katara/internal/world"
)

func testWorld() *world.World {
	return world.New(11, world.Config{
		Persons: 120, Players: 60, Clubs: 15, Universities: 40, Films: 30, Books: 30,
	})
}

func TestYagoLikeShape(t *testing.T) {
	w := testWorld()
	kb := YagoLike(w, 1)
	st := kbstats.New(kb.Store)
	if st.NumEntities() == 0 {
		t.Fatal("empty KB")
	}
	db := DBpediaLike(w, 1)
	stDB := kbstats.New(db.Store)
	// Yago's defining property vs DBpedia: far more types.
	if st.NumTypes() <= 2*stDB.NumTypes() {
		t.Fatalf("Yago types %d should dwarf DBpedia types %d", st.NumTypes(), stDB.NumTypes())
	}
	// Soccer relations are omitted from Yago entirely.
	if kb.PropFor(world.RPlaysFor) != rdf.NoID {
		t.Fatal("YagoLike must omit playsFor")
	}
	if db.PropFor(world.RPlaysFor) == rdf.NoID {
		t.Fatal("DBpediaLike must include playsFor")
	}
}

func TestTypeForHierarchyFallback(t *testing.T) {
	w := testWorld()
	db := DBpediaLike(w, 1)
	// DBpedia has no capital class: capital must resolve to City.
	capital := db.TypeFor(world.TCapital)
	if capital == rdf.NoID || capital != db.TypeID[world.TCity] {
		t.Fatal("capital should fall back to City in DBpedia")
	}
	yago := YagoLike(w, 1)
	if yago.TypeFor(world.TCapital) == yago.TypeID[world.TCity] {
		t.Fatal("Yago does model capital directly")
	}
	if db.TypeFor("no-such-type") != rdf.NoID {
		t.Fatal("unknown type must be NoID")
	}
}

func TestKBFactsMatchWorld(t *testing.T) {
	w := testWorld()
	for _, kb := range []*KB{YagoLike(w, 2), DBpediaLike(w, 2)} {
		st := kb.Store
		hasCap := kb.PropFor(world.RHasCapital)
		if hasCap == rdf.NoID {
			t.Fatalf("%s misses hasCapital", kb.Name)
		}
		n := 0
		for _, subj := range st.SubjectsWithPredicate(hasCap) {
			for _, obj := range st.Objects(subj, hasCap) {
				n++
				// Every KB fact must be true in the world.
				if !w.RelHolds(st.LabelOf(subj), world.RHasCapital, st.LabelOf(obj)) {
					t.Fatalf("%s asserts false fact %s hasCapital %s",
						kb.Name, st.LabelOf(subj), st.LabelOf(obj))
				}
			}
		}
		if n == 0 {
			t.Fatalf("%s has no capital facts", kb.Name)
		}
	}
}

func TestKBIncomplete(t *testing.T) {
	w := testWorld()
	kb := YagoLike(w, 3)
	// Coverage < 1 means some persons are missing.
	missing := 0
	for _, p := range w.Persons {
		if len(kb.Store.MatchLabel(p.Name, 1)) == 0 {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("YagoLike should be incomplete over persons")
	}
	if missing == len(w.Persons) {
		t.Fatal("YagoLike lost all persons")
	}
}

func TestKBDeterministic(t *testing.T) {
	w := testWorld()
	a := YagoLike(w, 5)
	b := YagoLike(w, 5)
	if a.Store.NumTriples() != b.Store.NumTriples() {
		t.Fatalf("nondeterministic KB: %d vs %d triples",
			a.Store.NumTriples(), b.Store.NumTriples())
	}
}

func TestPersonTableSpec(t *testing.T) {
	w := testWorld()
	spec := PersonTable(w, 7, 200)
	if spec.Table.NumRows() != 200 || spec.Table.NumCols() != 4 {
		t.Fatalf("shape = %dx%d", spec.Table.NumRows(), spec.Table.NumCols())
	}
	// Every row must be world-consistent.
	for _, row := range spec.Table.Rows {
		if !w.RelHolds(row[0], world.RNationality, row[1]) {
			t.Fatalf("row %v: bad nationality", row)
		}
		if !w.RelHolds(row[1], world.RHasCapital, row[2]) {
			t.Fatalf("row %v: bad capital", row)
		}
		if !w.RelHolds(row[1], world.RLanguage, row[3]) {
			t.Fatalf("row %v: bad language", row)
		}
	}
}

func TestSoccerAndUniversitySpecs(t *testing.T) {
	w := testWorld()
	soccer := SoccerTable(w, 7, 100)
	for _, row := range soccer.Table.Rows {
		if !w.RelHolds(row[0], world.RPlaysFor, row[1]) ||
			!w.RelHolds(row[1], world.RClubCity, row[2]) ||
			!w.RelHolds(row[1], world.RInLeague, row[3]) {
			t.Fatalf("bad soccer row %v", row)
		}
	}
	uni := UniversityTable(w, 7, 100)
	for _, row := range uni.Table.Rows {
		if !w.RelHolds(row[0], world.RUnivCity, row[1]) ||
			!w.RelHolds(row[0], world.RUnivState, row[2]) ||
			!w.RelHolds(row[1], world.RCityState, row[2]) {
			t.Fatalf("bad university row %v", row)
		}
	}
}

func TestSmallTableDatasets(t *testing.T) {
	w := testWorld()
	wiki := WikiTables(w, 9)
	if len(wiki.Specs) != 28 {
		t.Fatalf("WikiTables = %d tables, want 28", len(wiki.Specs))
	}
	web := WebTables(w, 9)
	if len(web.Specs) != 30 {
		t.Fatalf("WebTables = %d tables, want 30", len(web.Specs))
	}
	for _, spec := range append(wiki.Specs, web.Specs...) {
		if spec.Table.NumRows() == 0 {
			t.Fatalf("empty table %s", spec.Table.Name)
		}
		if len(spec.ColTypes) != spec.Table.NumCols() {
			t.Fatalf("%s: coltypes arity mismatch", spec.Table.Name)
		}
	}
}

func TestTruthPatternPerKB(t *testing.T) {
	w := testWorld()
	spec := SoccerTable(w, 7, 50)
	yago := YagoLike(w, 1)
	db := DBpediaLike(w, 1)
	yp := spec.TruthPattern(yago)
	dp := spec.TruthPattern(db)
	// Yago: soccer columns typed but no relationships (Fig. 10).
	if len(yp.Edges) != 0 {
		t.Fatalf("Yago soccer truth pattern has %d edges, want 0", len(yp.Edges))
	}
	if len(yp.Nodes) == 0 {
		t.Fatal("Yago soccer truth pattern should still type columns")
	}
	// DBpedia: relationships present.
	if len(dp.Edges) != 3 {
		t.Fatalf("DBpedia soccer truth pattern has %d edges, want 3", len(dp.Edges))
	}
}

func TestSpecOracle(t *testing.T) {
	w := testWorld()
	spec := PersonTable(w, 7, 20)
	kb := DBpediaLike(w, 1)
	o := SpecOracle{Spec: spec, KB: kb}
	if o.TrueType(0) != kb.TypeID[world.TPerson] {
		t.Fatal("TrueType(0) wrong")
	}
	if o.TrueRel(1, 2) != kb.PropFor(world.RHasCapital) {
		t.Fatal("TrueRel(1,2) wrong")
	}
	if o.TrueRel(2, 1) != rdf.NoID {
		t.Fatal("reverse rel should be NoID")
	}
	if o.TrueType(99) != rdf.NoID {
		t.Fatal("out-of-range column should be NoID")
	}
}

func TestWorldOracle(t *testing.T) {
	w := testWorld()
	kb := YagoLike(w, 1)
	o := WorldOracle{W: w, KB: kb}
	country := kb.TypeID[world.TCountry]
	if !o.TypeHolds("Italy", country) {
		t.Fatal("Italy should be a country")
	}
	if o.TypeHolds("Rome", country) {
		t.Fatal("Rome is not a country")
	}
	hasCap := kb.PropFor(world.RHasCapital)
	if !o.RelHolds("Italy", hasCap, "Rome") || o.RelHolds("Italy", hasCap, "Madrid") {
		t.Fatal("RelHolds broken")
	}
	// Noise classes answer through their captured predicates.
	wikicat := kb.Store.LookupTerm(rdf.IRI("yago:wikicat_Countries_in_Europe"))
	if wikicat == rdf.NoID {
		t.Fatal("expected wikicat class")
	}
	if !o.TypeHolds("Italy", wikicat) {
		t.Fatal("Italy is a country in Europe")
	}
	if o.TypeHolds("Japan", wikicat) {
		t.Fatal("Japan is not a country in Europe")
	}
}

func TestRelationalTablesScale(t *testing.T) {
	w := testWorld()
	ds := RelationalTables(w, 3, 0.01)
	if len(ds.Specs) != 3 {
		t.Fatalf("specs = %d", len(ds.Specs))
	}
	if got := ds.Specs[0].Table.NumRows(); got != 50 {
		t.Fatalf("scaled person rows = %d, want 50", got)
	}
}
