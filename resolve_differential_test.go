package katara

import (
	"math/rand"
	"reflect"
	"testing"

	"katara/internal/annotation"
	"katara/internal/discovery"
	"katara/internal/kbstats"
	"katara/internal/pattern"
	"katara/internal/resolve"
	"katara/internal/similarity"
	"katara/internal/table"
	"katara/internal/workload"
	"katara/internal/world"
)

// These tests pin the tentpole invariant of the shared resolution cache:
// routing label resolution through resolve.Cache changes nothing about the
// pipeline's output — candidates, annotations and repairs are byte-identical
// to uncached resolution, for every worker count.

func differentialFixture(seed int64, rows int) (*workload.KB, *workload.TableSpec, *Table) {
	w := world.New(seed, world.Config{
		Persons: 150, Players: 60, Clubs: 12, Universities: 40, Films: 20, Books: 20,
	})
	kb := workload.DBpediaLike(w, seed)
	spec := workload.PersonTable(w, seed, rows)
	dirty := spec.Table.Clone()
	rng := rand.New(rand.NewSource(seed))
	table.InjectErrors(dirty, []int{1, 2, 3}, 0.10, rng)
	return kb, spec, dirty
}

func TestCachedCandidatesIdenticalToUncached(t *testing.T) {
	kb, _, dirty := differentialFixture(41, 150)
	stats := kbstats.New(kb.Store)

	base := discovery.Generate(dirty, stats, discovery.Options{})
	cache := resolve.New(kb.Store, similarity.DefaultThreshold)
	cached := discovery.Generate(dirty, stats, discovery.Options{Resolver: cache})

	if !reflect.DeepEqual(base.Columns, cached.Columns) {
		t.Fatal("cached resolution changed column candidates")
	}
	if !reflect.DeepEqual(base.Pairs, cached.Pairs) {
		t.Fatal("cached resolution changed pair candidates")
	}
	// Within one Generate the local per-value cache dedupes ahead of the
	// resolver, so the first pass records only misses; the shared memo pays
	// off across passes and shards.
	if _, misses := cache.Stats(); misses == 0 {
		t.Fatalf("cache did not engage: misses=%d", misses)
	}

	// The same cache serves GenerateParallel at any worker count.
	for _, workers := range []int{2, 4} {
		par := discovery.GenerateParallel(dirty, stats, discovery.Options{Resolver: cache}, workers)
		if !reflect.DeepEqual(base.Columns, par.Columns) || !reflect.DeepEqual(base.Pairs, par.Pairs) {
			t.Fatalf("workers=%d: cached parallel candidates differ from serial uncached", workers)
		}
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Fatal("repeat passes over the same table recorded no cache hits")
	}
}

func TestCachedAnnotationIdenticalToUncached(t *testing.T) {
	kb, _, dirty := differentialFixture(43, 120)

	// Clones preserve term IDs, so one discovered pattern applies to both
	// runs. Each run gets its own clone because enrichment mutates the KB.
	kbA := kb.Store.Clone()
	kbB := kb.Store.Clone()
	cands := discovery.Generate(dirty, kbstats.New(kbA), discovery.Options{})
	ps := discovery.TopK(cands, 1)
	if len(ps) == 0 {
		t.Fatal("no pattern discovered")
	}
	p := ps[0]

	// Annotation runs through the cleaner's annotate stage, whose coverage
	// fan-out is sized by Options.Workers.
	run := func(kbRun *KB, resolver pattern.LabelSource, workers int) *annotation.Result {
		ann := &annotation.Annotator{
			KB:       kbRun,
			Pattern:  p,
			Crowd:    TrustingCrowd(),
			Oracle:   nil,
			Enrich:   true,
			Resolver: resolver,
		}
		c := &Cleaner{kb: kbRun, opts: Options{Workers: workers}}
		return c.annotateRows(ann, dirty, make([]*pattern.Match, dirty.NumRows()), 0)
	}

	base := run(kbA, nil, 1)
	cached := run(kbB, resolve.New(kbB, similarity.DefaultThreshold), 1)
	if !reflect.DeepEqual(base, cached) {
		t.Fatal("cached resolution changed annotation results")
	}
	for _, workers := range []int{2, 4} {
		kbW := kb.Store.Clone()
		got := run(kbW, resolve.New(kbW, similarity.DefaultThreshold), workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: cached annotations differ from serial uncached", workers)
		}
	}
}

func TestCleanIdenticalAcrossWorkerCounts(t *testing.T) {
	kb, spec, dirty := differentialFixture(47, 150)
	w := world.New(47, world.Config{
		Persons: 150, Players: 60, Clubs: 12, Universities: 40, Films: 20, Books: 20,
	})

	type outcome struct {
		patternKey  string
		annotations []TupleAnnotation
		repairs     map[int][]Repair
		newFacts    []Fact
	}
	run := func(workers int) outcome {
		kbRun := kb.Store.Clone()
		cleaner := NewCleaner(kbRun, NewCrowd(10, 0.97, 47), Options{
			ValidationOracle: workload.SpecOracle{Spec: spec, KB: kb},
			FactOracle:       workload.WorldOracle{W: w, KB: kb},
			Workers:          workers,
		})
		report, err := cleaner.Clean(dirty)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if hits, _ := cleaner.ResolverStats(); hits == 0 {
			t.Fatalf("workers=%d: resolution cache never hit", workers)
		}
		return outcome{
			patternKey:  report.Pattern.Key(),
			annotations: report.Annotations,
			repairs:     report.Repairs,
			newFacts:    report.NewFacts,
		}
	}

	base := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if got.patternKey != base.patternKey {
			t.Fatalf("workers=%d: pattern differs", workers)
		}
		if !reflect.DeepEqual(got.annotations, base.annotations) {
			t.Fatalf("workers=%d: annotations differ", workers)
		}
		if !reflect.DeepEqual(got.repairs, base.repairs) {
			t.Fatalf("workers=%d: repairs differ", workers)
		}
		if !reflect.DeepEqual(got.newFacts, base.newFacts) {
			t.Fatalf("workers=%d: new facts differ", workers)
		}
	}
}

func TestReportCarriesResolverCounters(t *testing.T) {
	kb, tbl := figure1()
	c := NewCleaner(kb, TrustingCrowd(), Options{Telemetry: true, FactOracle: fig1Oracle{kb}})
	report, err := c.Clean(tbl)
	if err != nil {
		t.Fatal(err)
	}
	hits := report.Timings.Counter("resolver-hits")
	misses := report.Timings.Counter("resolver-misses")
	if misses == 0 {
		t.Fatal("no resolver misses recorded: cache is not in the path")
	}
	if hits == 0 {
		t.Fatal("no resolver hits recorded on a table with repeated values")
	}
	// A second run over the same table reuses the warm memo: at most the
	// post-enrichment flush forces re-resolution, so the hit share grows.
	report2, err := c.Clean(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if h2 := report2.Timings.Counter("resolver-hits"); h2 == 0 {
		t.Fatal("warm second run recorded no hits")
	}
}
