package annotation

import (
	"reflect"
	"strings"
	"testing"

	"katara/internal/pattern"
	"katara/internal/telemetry"
)

// allUnits lists the units [0, n).
func allUnits(n int) []int {
	units := make([]int, n)
	for i := range units {
		units[i] = i
	}
	return units
}

// TestEvaluateCoverageMatchesInline: the unit-based coverage entry point
// must produce exactly the matches the serial annotator evaluates inline —
// AnnotateRange over the precomputed memo equals Annotate from scratch.
func TestEvaluateCoverageMatchesInline(t *testing.T) {
	f := newFixture()
	tel := telemetry.New()

	ann := newAnnotator(f, false)
	cover := make([]*pattern.Match, f.tbl.NumRows())
	ann.EvaluateCoverage(f.tbl, allUnits(f.tbl.NumRows()), cover, tel)
	for i, m := range cover {
		if m == nil {
			t.Fatalf("row %d: nil match", i)
		}
	}
	if got := tel.Get(telemetry.KBLookups); got != int64(f.tbl.NumRows()) {
		t.Fatalf("KBLookups = %d, want one per row (%d)", got, f.tbl.NumRows())
	}

	pre := newAnnotator(newFixture(), false)
	pre.Telemetry = telemetry.New()
	withPre := pre.AnnotateRange(f.tbl, cover, 0, f.tbl.NumRows())
	inline := newAnnotator(newFixture(), false).Annotate(f.tbl)
	if !reflect.DeepEqual(withPre, inline) {
		t.Fatalf("AnnotateRange(precomputed) differs from inline Annotate\npre:    %+v\ninline: %+v",
			withPre.Tuples, inline.Tuples)
	}
	if got := pre.Telemetry.Get(telemetry.KBLookups); got != 0 {
		t.Fatalf("AnnotateRange re-evaluated %d memoised units", got)
	}
}

// TestEvaluateCoverageOnlyListedUnits: units missing from the list are left
// untouched, so a delta pass evaluates only what its memo lacks.
func TestEvaluateCoverageOnlyListedUnits(t *testing.T) {
	f := newFixture()
	ann := newAnnotator(f, false)
	cover := make([]*pattern.Match, f.tbl.NumRows())
	ann.EvaluateCoverage(f.tbl, []int{1, 2}, cover, telemetry.New())
	if cover[0] != nil {
		t.Fatal("unit 0, not listed, was evaluated")
	}
	for i := 1; i < f.tbl.NumRows(); i++ {
		if cover[i] == nil {
			t.Fatalf("listed unit %d not evaluated", i)
		}
	}
}

// TestEvaluateCoverageGroups: under dedup the unit is the signature group —
// each group is evaluated once through its representative, and the verdict
// matches the per-row evaluation of every member.
func TestEvaluateCoverageGroups(t *testing.T) {
	f := newFixture()
	// Duplicate every fixture row once so groups have 2 members each.
	n := f.tbl.NumRows()
	for i := 0; i < n; i++ {
		f.tbl.Append(f.tbl.Rows[i]...)
	}
	in := f.tbl.Interned()
	if in.NumGroups() != n {
		t.Fatalf("NumGroups = %d, want %d", in.NumGroups(), n)
	}

	ann := newAnnotator(f, false)
	ann.Interned = in
	tel := telemetry.New()
	byGroup := make([]*pattern.Match, in.NumGroups())
	ann.EvaluateCoverage(f.tbl, allUnits(in.NumGroups()), byGroup, tel)
	if got := tel.Get(telemetry.KBLookups); got != int64(n) {
		t.Fatalf("KBLookups = %d, want one per group (%d)", got, n)
	}

	ann.Interned = nil
	byRow := make([]*pattern.Match, f.tbl.NumRows())
	ann.EvaluateCoverage(f.tbl, allUnits(f.tbl.NumRows()), byRow, telemetry.New())
	for row := range byRow {
		if g := byGroup[in.GroupOf(row)]; !reflect.DeepEqual(g, byRow[row]) {
			t.Fatalf("row %d: group match %+v != per-row match %+v", row, g, byRow[row])
		}
	}

	// A dedup pass over the group memo fans each verdict out to every
	// duplicate without evaluating anything again.
	ann.Interned = in
	ann.Telemetry = telemetry.New()
	res := ann.AnnotateRange(f.tbl, byGroup, 0, f.tbl.NumRows())
	if len(res.Tuples) != f.tbl.NumRows() {
		t.Fatalf("annotated %d tuples, want %d", len(res.Tuples), f.tbl.NumRows())
	}
	if got := ann.Telemetry.Get(telemetry.KBLookups); got != 0 {
		t.Fatalf("dedup pass re-evaluated %d memoised groups", got)
	}
}

// TestDegradePolicyString: the Stringer names both policies and falls back
// to the numeric form for unknown values.
func TestDegradePolicyString(t *testing.T) {
	if got := DegradeTrustKB.String(); got != "trust-kb" {
		t.Errorf("DegradeTrustKB = %q", got)
	}
	if got := DegradeMarkUnknown.String(); got != "mark-unknown" {
		t.Errorf("DegradeMarkUnknown = %q", got)
	}
	if got := DegradePolicy(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown policy = %q, want numeric fallback", got)
	}
}
