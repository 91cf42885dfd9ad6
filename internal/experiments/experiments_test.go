package experiments

import (
	"strings"
	"sync"
	"testing"

	"katara/internal/workload"
	"katara/internal/world"
)

var (
	envOnce sync.Once
	testEnv *Env
)

// smallEnv builds a scaled-down environment once and shares it across the
// test suite (construction dominates test runtime otherwise).
func smallEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		testEnv = NewEnv(Config{
			Seed: 7,
			World: world.Config{
				Persons: 150, Players: 80, Clubs: 16, Universities: 40,
				Films: 40, Books: 40,
			},
			Scale:       0.02, // Person 100 / Soccer 32 / University 27
			MaxRows:     40,
			PGMMaxCells: 4000,
		})
	})
	return testEnv
}

func TestEnvConstruction(t *testing.T) {
	e := smallEnv(t)
	if len(e.KBs) != 2 || e.KBs[0].Name != "Yago" || e.KBs[1].Name != "DBpedia" {
		t.Fatalf("KBs = %v", e.KBs)
	}
	if len(e.Datasets) != 3 {
		t.Fatalf("datasets = %d", len(e.Datasets))
	}
	if e.Dataset("WikiTables") == nil || e.Dataset("nope") != nil {
		t.Fatal("Dataset lookup broken")
	}
}

func TestTable1Shapes(t *testing.T) {
	e := smallEnv(t)
	rows := Table1(e)
	if len(rows) != 6 { // 3 datasets x 2 KBs
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]Table1Row{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.KB] = r
		if r.NumTypes == 0 {
			t.Fatalf("%s/%s has no annotatable columns", r.Dataset, r.KB)
		}
	}
	// Yago has no soccer relations, so RelationalTables must have fewer
	// relationships under Yago than DBpedia.
	if byKey["RelationalTables/Yago"].NumRelations >= byKey["RelationalTables/DBpedia"].NumRelations {
		t.Fatalf("relational relationships: yago %d vs dbpedia %d",
			byKey["RelationalTables/Yago"].NumRelations,
			byKey["RelationalTables/DBpedia"].NumRelations)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "WikiTables") || !strings.Contains(out, "DBpedia") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestTable2Shapes(t *testing.T) {
	e := smallEnv(t)
	cells := Table2(e)
	if len(cells) != 24 { // 2 KBs x 3 datasets x 4 algorithms
		t.Fatalf("cells = %d", len(cells))
	}
	get := func(kb, ds, algo string) Table2Cell {
		for _, c := range cells {
			if c.KB == kb && c.Dataset == ds && c.Algorithm == algo {
				return c
			}
		}
		t.Fatalf("missing cell %s/%s/%s", kb, ds, algo)
		return Table2Cell{}
	}
	// The headline shape: RankJoin beats Support everywhere on F.
	for _, kb := range []string{"Yago", "DBpedia"} {
		for _, ds := range []string{"WikiTables", "WebTables", "RelationalTables"} {
			rj := get(kb, ds, "RankJoin").PR
			sup := get(kb, ds, "Support").PR
			if rj.F() <= sup.F() {
				t.Errorf("%s/%s: RankJoin F %.3f <= Support F %.3f", kb, ds, rj.F(), sup.F())
			}
			if rj.F() < 0.5 {
				t.Errorf("%s/%s: RankJoin F %.3f suspiciously low", kb, ds, rj.F())
			}
		}
	}
	if testing.Verbose() {
		t.Log("\n" + RenderTable2(cells))
	}
}

func TestFigure6Shapes(t *testing.T) {
	e := smallEnv(t)
	series := Figure6(e, 5)
	if len(series) != 8 { // 2 KBs x 4 algorithms
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		// Best-of-top-k F must be monotonically non-decreasing in k.
		for i := 1; i < len(s.F); i++ {
			if s.F[i]+1e-9 < s.F[i-1] {
				t.Fatalf("%s/%s: top-k F decreased at k=%d: %v", s.KB, s.Algorithm, i+1, s.F)
			}
		}
	}
	out := RenderTopKF("Figure 6", series)
	if !strings.Contains(out, "k=5") {
		t.Fatal("render missing k columns")
	}
}

func TestFigure7Shapes(t *testing.T) {
	e := smallEnv(t)
	series := Figure7(e, 3)
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		last := len(s.Q) - 1
		if s.P[last] < 0.5 || s.R[last] < 0.5 {
			t.Errorf("%s/%s: validated pattern quality too low at q=%d: P=%.2f R=%.2f",
				s.Dataset, s.KB, s.Q[last], s.P[last], s.R[last])
		}
	}
	_ = RenderValidation("Figure 7", series)
}

func TestTable4MUVFBeatsAVI(t *testing.T) {
	e := smallEnv(t)
	rows := Table4(e)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MUVF > r.AVI {
			t.Errorf("%s/%s: MUVF %d > AVI %d", r.Dataset, r.KB, r.MUVF, r.AVI)
		}
		if r.MUVF == 0 && r.AVI == 0 {
			t.Errorf("%s/%s: no validation happened at all", r.Dataset, r.KB)
		}
	}
	_ = RenderTable4(rows)
}

func TestTable5Shapes(t *testing.T) {
	e := smallEnv(t)
	rows := Table5(e)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, triple := range [][3]float64{
			{r.TypeKB, r.TypeCrowd, r.TypeError},
			{r.RelKB, r.RelCrowd, r.RelError},
		} {
			sum := triple[0] + triple[1] + triple[2]
			if sum > 1e-9 && (sum < 0.999 || sum > 1.001) {
				t.Errorf("%s/%s: fractions sum to %f", r.Dataset, r.KB, sum)
			}
		}
		if r.TypeKB == 0 {
			t.Errorf("%s/%s: KB validated nothing", r.Dataset, r.KB)
		}
	}
	// Redundancy effect: RelationalTables' KB share is the highest of the
	// three datasets under each KB.
	byKB := map[string][]Table5Row{}
	for _, r := range rows {
		byKB[r.KB] = append(byKB[r.KB], r)
	}
	for kb, rs := range byKB {
		var rel, maxOther float64
		for _, r := range rs {
			if r.Dataset == "RelationalTables" {
				rel = r.TypeKB
			} else if r.TypeKB > maxOther {
				maxOther = r.TypeKB
			}
		}
		if rel < maxOther-0.05 {
			t.Errorf("%s: RelationalTables KB share %.2f below small tables %.2f",
				kb, rel, maxOther)
		}
	}
	_ = RenderTable5(rows)
}

func TestFigure8Shapes(t *testing.T) {
	e := smallEnv(t)
	series := Figure8(e, 3)
	if len(series) != 6 { // 3 tables x 2 KBs
		t.Fatalf("series = %d", len(series))
	}
	sawNA := false
	for _, s := range series {
		if s.Table == "Soccer" && s.KB == "Yago" {
			if !s.NA {
				t.Error("Soccer x Yago should be N.A.")
			}
			sawNA = true
			continue
		}
		// Repair F is not mathematically monotone in k (a larger k can add a
		// non-matching repair to a previously-empty list, counting as a
		// change); assert it does not collapse instead.
		for i := 1; i < len(s.F); i++ {
			if s.F[i] < s.F[0]-0.15 {
				t.Errorf("%s/%s: repair F collapsed with k: %v", s.Table, s.KB, s.F)
			}
		}
	}
	if !sawNA {
		t.Error("missing Soccer x Yago row")
	}
	_ = RenderFigure8(series)
}

func TestTable6Shapes(t *testing.T) {
	e := smallEnv(t)
	rows := Table6(e)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Table == "Soccer" && !r.KataraYagoNA {
			t.Error("Soccer KATARA(Yago) should be N.A.")
		}
		// KATARA's precision advantage (where applicable): DBpedia KATARA
		// precision should not be below EQ's on Person.
		if r.Table == "Person" {
			if r.KataraDBp.Precision < r.EQ.Precision-0.15 {
				t.Errorf("Person: KATARA(DBpedia) P %.2f far below EQ %.2f",
					r.KataraDBp.Precision, r.EQ.Precision)
			}
			if r.KataraDBp.Recall < 0.3 {
				t.Errorf("Person: KATARA(DBpedia) recall %.2f too low", r.KataraDBp.Recall)
			}
		}
	}
	_ = RenderTable6(rows)
}

func TestAblationCoherenceHelps(t *testing.T) {
	e := smallEnv(t)
	rows := AblationCoherence(e)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// With band-pruned candidates the tf-idf signal already dominates, so
	// the coherence term's net effect is small (see EXPERIMENTS.md): its
	// losses come from preferring semantically tighter classes (a College-
	// towns category over city) that the strict ground-truth metric
	// penalises. Assert it stays within a small band per row — the
	// catastrophic-failure guard; the regime where coherence is decisive
	// (noisy candidates, Example 5) is unit-tested in package discovery.
	for _, r := range rows {
		d := r.Full.F() - r.Naive.F()
		if d < -0.12 {
			t.Errorf("%s/%s: coherence cost too much F: Δ=%f", r.Dataset, r.KB, d)
		}
	}
	out := RenderAblation(rows)
	if !strings.Contains(out, "naiveScore") {
		t.Fatal("render missing header")
	}
}

func TestTable7Shapes(t *testing.T) {
	e := smallEnv(t)
	rows := Table7(e)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// KATARA keeps high precision on small tables; recall is bounded by
		// KB coverage (§7.4). Precision 0 only if nothing was repaired.
		if r.KataraDBp.Precision > 0 && r.KataraDBp.Precision < 0.6 {
			t.Errorf("%s: KATARA(DBpedia) precision %.2f too low", r.Dataset, r.KataraDBp.Precision)
		}
	}
	_ = RenderTable7(rows)
}

func TestFigure10KeepsOnlyTruthEdges(t *testing.T) {
	e := smallEnv(t)
	rows := Figure10(e)
	if len(rows) != 6 { // 3 tables x 2 KBs
		t.Fatalf("rows = %d", len(rows))
	}
	kbs := map[string]*workload.KB{}
	for _, kb := range e.KBs {
		kbs[kb.Name] = kb
	}
	specs := map[string]*workload.TableSpec{}
	for _, spec := range e.Dataset("RelationalTables").Specs {
		specs[spec.Table.Name] = spec
	}
	edges := 0
	for _, r := range rows {
		if r.Pattern == nil {
			t.Errorf("%s/%s: no validated pattern", r.Table, r.KB)
			continue
		}
		truth := specs[r.Table].TruthPattern(kbs[r.KB])
		for _, ed := range r.Pattern.Edges {
			edges++
			if truth.EdgeBetween(ed.From, ed.To) == nil {
				t.Errorf("%s/%s: validated pattern keeps edge %d->%d the truth pattern lacks:\n%s",
					r.Table, r.KB, ed.From, ed.To, r.Text)
			}
		}
	}
	if edges == 0 {
		t.Error("no validated pattern has a relationship edge")
	}
	out := RenderFigure10(rows)
	if !strings.Contains(out, "Figure 10") || !strings.Contains(out, "DBpedia:") {
		t.Fatalf("render:\n%s", out)
	}
}
