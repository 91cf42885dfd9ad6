package katara

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"katara/internal/table"
	"katara/internal/telemetry"
	"katara/internal/workload"
	"katara/internal/world"
)

// personClean cleans a rows-row Person table (the paper-scale workload's
// generator, world seed 7, table seed 308, 10% injected errors) with
// dedup on, recording into tel.
func personClean(t *testing.T, rows, workers int, tel *TelemetryPipeline) (*Report, *table.Interned) {
	t.Helper()
	w := world.New(7, world.Config{
		Persons: 150, Players: 80, Clubs: 16, Universities: 40, Films: 40, Books: 40,
	})
	kb := workload.DBpediaLike(w, 7)
	spec := workload.PersonTable(w, 308, rows)
	table.InjectErrors(spec.Table, []int{1, 2, 3}, 0.10, newRand(309))
	rep, err := NewCleaner(kb.Store, TrustingCrowd(), Options{
		FactOracle:       workload.WorldOracle{W: w, KB: kb},
		ValidationOracle: workload.SpecOracle{Spec: spec, KB: kb},
		MaxRows:          500,
		Workers:          workers,
		Pipeline:         tel,
	}).Clean(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	return rep, spec.Table.Interned()
}

// TestAnnotationDecidesEachSignatureOnce pins the per-unit annotation
// mechanism on a 40,000-row Person table (4,015 signatures): a duplicate
// row copies its unit's settled outcome instead of being decided again,
// and an enrichment re-evaluates only the coverage it can change. So the
// annotate-tuple histogram (one sample per decision) stays within 5% of
// the signature count — far below the row count — and the KB lookups
// within 25% of it, for every worker count.
func TestAnnotationDecidesEachSignatureOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("40,000-row clean")
	}
	const rows = 40000
	for _, workers := range []int{1, 2} {
		rep, in := personClean(t, rows, workers, NewTelemetry())
		sigs := float64(in.NumGroups())
		decisions := rep.Timings.HistByName("annotate-tuple").Count
		lookups := rep.Timings.Counter("kb-lookups")
		if tuples := rep.Timings.Counter("tuples-annotated"); tuples != rows {
			t.Fatalf("workers=%d: tuples-annotated = %d, want one per row (%d)", workers, tuples, rows)
		}
		if float64(decisions) > 1.05*sigs || decisions > rows/5 {
			t.Errorf("workers=%d: %d annotation decisions for %d rows over %.0f signatures, want at most 5%% above the signature count",
				workers, decisions, rows, sigs)
		}
		if float64(lookups) > 1.25*sigs {
			t.Errorf("workers=%d: %d KB lookups for %.0f signatures, want at most 25%% above the signature count",
				workers, lookups, sigs)
		}
	}
}

// TestAnnotateSpansAttributeCoverageAndDecisions: a traced clean puts the
// annotate stage's coverage fan-out and serial decision pass in child
// spans of the stage span, and their units add up to the stage's KB
// lookups.
func TestAnnotateSpansAttributeCoverageAndDecisions(t *testing.T) {
	var buf bytes.Buffer
	tel := NewTelemetry()
	tel.SetJournal(telemetry.NewJournal(&buf))
	rep, _ := personClean(t, 3000, 2, tel)

	spans := map[string][]telemetry.SpanRecord{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r telemetry.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		spans[r.Name] = append(spans[r.Name], r)
	}
	if len(spans["annotate"]) != 1 || len(spans["annotate-coverage"]) != 1 || len(spans["annotate-decide"]) != 1 {
		t.Fatalf("want one annotate, annotate-coverage and annotate-decide span, got %d, %d, %d",
			len(spans["annotate"]), len(spans["annotate-coverage"]), len(spans["annotate-decide"]))
	}
	stage := spans["annotate"][0].ID
	cov, dec := spans["annotate-coverage"][0], spans["annotate-decide"][0]
	if cov.Parent != stage || dec.Parent != stage {
		t.Fatalf("coverage/decide spans have parents %d/%d, want the annotate stage span %d", cov.Parent, dec.Parent, stage)
	}
	attr := func(r telemetry.SpanRecord, key string) int64 {
		v, ok := r.Attrs[key].(float64)
		if !ok {
			t.Fatalf("span %s lacks attribute %q: %v", r.Name, key, r.Attrs)
		}
		return int64(v)
	}
	decisions := attr(dec, "decisions")
	if h := rep.Timings.HistByName("annotate-tuple").Count; decisions != h {
		t.Errorf("annotate-decide decisions = %d, annotate-tuple histogram = %d", decisions, h)
	}
	if n := int64(len(spans["annotate-tuple"])); n != decisions {
		t.Errorf("%d annotate-tuple spans for %d decisions", n, decisions)
	}
	if inv := attr(dec, "invalidated"); inv == 0 {
		t.Error("annotate-decide invalidated = 0; the clean enriches the KB")
	}
	if units := attr(cov, "units") + attr(dec, "units"); units == 0 || units > rep.Timings.Counter("kb-lookups") {
		t.Errorf("coverage + decide units = %d, kb-lookups = %d", units, rep.Timings.Counter("kb-lookups"))
	}
}
