package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/telemetry"
)

// randKB builds a person–country–capital KB big enough that enumeration has
// many roots to shard: nPeople persons, each a national of one of nCountries
// countries, each country with one capital.
func randKB(seed int64, nPeople, nCountries int) (*rdf.Store, *pattern.Pattern) {
	rng := rand.New(rand.NewSource(seed))
	kb := rdf.New()
	add := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.IRI(obj)) }
	lit := func(sub, pred, obj string) { kb.AddFact(rdf.IRI(sub), rdf.IRI(pred), rdf.Lit(obj)) }
	for j := 0; j < nCountries; j++ {
		c, t := fmt.Sprintf("y:C%d", j), fmt.Sprintf("y:T%d", j)
		add(c, rdf.IRIType, "country")
		lit(c, rdf.IRILabel, fmt.Sprintf("C%d", j))
		add(t, rdf.IRIType, "capital")
		lit(t, rdf.IRILabel, fmt.Sprintf("T%d", j))
		add(c, "hasCapital", t)
	}
	for i := 0; i < nPeople; i++ {
		p := fmt.Sprintf("y:P%d", i)
		add(p, rdf.IRIType, "person")
		lit(p, rdf.IRILabel, fmt.Sprintf("P%d", i))
		add(p, "nationality", fmt.Sprintf("y:C%d", rng.Intn(nCountries)))
	}
	pat := &pattern.Pattern{
		Nodes: []pattern.Node{
			{Column: 0, Type: kb.Res("person")},
			{Column: 1, Type: kb.Res("country")},
			{Column: 2, Type: kb.Res("capital")},
		},
		Edges: []pattern.Edge{
			{From: 0, To: 1, Prop: kb.Res("nationality")},
			{From: 1, To: 2, Prop: kb.Res("hasCapital")},
		},
	}
	return kb, pat
}

func TestParallelBuildIndexMatchesSerial(t *testing.T) {
	for _, maxGraphs := range []int{0, 7} {
		kb, pat := randKB(1, 60, 20)
		serial := BuildIndex(kb, pat, Options{MaxGraphs: maxGraphs})
		for _, workers := range []int{2, 4, 8} {
			par := BuildIndex(kb, pat, Options{MaxGraphs: maxGraphs, Workers: workers})
			if !reflect.DeepEqual(serial.Graphs, par.Graphs) {
				t.Fatalf("maxGraphs=%d workers=%d: %d graphs vs serial %d, or different order",
					maxGraphs, workers, len(par.Graphs), len(serial.Graphs))
			}
			if !reflect.DeepEqual(serial.lists, par.lists) {
				t.Fatalf("maxGraphs=%d workers=%d: inverted lists differ", maxGraphs, workers)
			}
		}
	}
}

func TestBuildIndexTelemetryCountsGraphs(t *testing.T) {
	kb, pat := figure5KB()
	tel := telemetry.New()
	ix := BuildIndex(kb, pat, Options{Telemetry: tel})
	if got := tel.Get(telemetry.GraphsEnumerated); got != int64(len(ix.Graphs)) {
		t.Fatalf("GraphsEnumerated = %d, want %d", got, len(ix.Graphs))
	}
	ix.TopK([]string{"Pirlo", "Italy", "Madrid", "Juve", "Italian", "Flero"}, 2)
	if got := tel.Get(telemetry.RepairsGenerated); got != 2 {
		t.Fatalf("RepairsGenerated = %d, want 2", got)
	}
}

// TestTopKDifferentialRandomized property-checks that the inverted-list
// retrieval and the naive full scan rank identically: same (cost, graph ID)
// sequences on randomized tables and KBs. Weights are integral so cost
// comparisons are exact.
func TestTopKDifferentialRandomized(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		kb, pat := randKB(seed, 30+rng.Intn(40), 5+rng.Intn(15))
		opts := Options{}
		if seed%2 == 1 {
			opts.Weights = map[int]float64{0: float64(1 + rng.Intn(3)), 2: float64(1 + rng.Intn(4))}
		}
		ix := BuildIndex(kb, pat, opts)
		cell := func() string {
			// Mix of real labels and junk that matches nothing.
			switch rng.Intn(4) {
			case 0:
				return fmt.Sprintf("P%d", rng.Intn(70))
			case 1:
				return fmt.Sprintf("C%d", rng.Intn(20))
			case 2:
				return fmt.Sprintf("T%d", rng.Intn(20))
			default:
				return fmt.Sprintf("X%d", rng.Intn(100))
			}
		}
		for trial := 0; trial < 25; trial++ {
			tup := []string{cell(), cell(), cell()}
			k := 1 + rng.Intn(len(ix.Graphs)+2)
			fast := ix.TopK(tup, k)
			slow := ix.TopKNaive(tup, k)
			if len(fast) != len(slow) {
				t.Fatalf("seed=%d tuple=%v k=%d: TopK returned %d repairs, naive %d",
					seed, tup, k, len(fast), len(slow))
			}
			for i := range fast {
				if fast[i].Cost != slow[i].Cost || fast[i].Graph.ID != slow[i].Graph.ID {
					t.Fatalf("seed=%d tuple=%v k=%d rank %d: TopK (cost=%g, g=%d) vs naive (cost=%g, g=%d)",
						seed, tup, k, i, fast[i].Cost, fast[i].Graph.ID, slow[i].Cost, slow[i].Graph.ID)
				}
			}
		}
	}
}
