package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestInternerRoundTripsCollisionLabels drives the table interner with the
// adversarial value distribution InjectLabelCollisions produces: labels one
// character edit away from real table values. Near-duplicates are exactly
// where a sloppy interner would go wrong (sharing a code across values that
// merely normalise alike), so the test pins that dictionary entries are
// kept per *exact* string and rows group only when byte-identical.
// It lives here rather than in internal/table because workload imports
// table — the interner package cannot exercise the adversary directly.
func TestInternerRoundTripsCollisionLabels(t *testing.T) {
	w := testWorld()
	kb := DBpediaLike(w, 5)
	spec := PersonTable(w, 6, 200)
	var values []string
	for col := 0; col < 2; col++ {
		for _, r := range spec.Table.Rows {
			values = append(values, r[col])
		}
	}

	rng := rand.New(rand.NewSource(9))
	added := InjectLabelCollisions(kb, rng, values, 60)
	if added == 0 {
		t.Fatal("no collisions injected; the test exercises nothing")
	}
	var decoys []string
	for i := 0; i < 60; i++ {
		decoys = append(decoys, kb.Store.LabelsOf(kb.Store.Res(fmt.Sprintf("adv:collision_%d", i)))...)
	}
	if len(decoys) != added {
		t.Fatalf("harvested %d decoy labels, want %d", len(decoys), added)
	}

	// Interleave originals with their near-duplicate decoys, repeating rows
	// so signature grouping has real work to do.
	tb := spec.Table.Clone()
	for i, d := range decoys {
		orig := values[i%len(values)]
		tb.Append(d, orig, d, d)
		tb.Append(d, orig, d, d) // exact duplicate: must share a group
	}

	in := tb.Interned()
	// Every row is byte-identical to its signature group's representative:
	// a decoy sharing a code with the value it imitates would group rows
	// that differ.
	for i, row := range tb.Rows {
		rep := tb.Rows[in.Group(in.GroupOf(i)).Rep]
		if !reflect.DeepEqual(row, rep) {
			t.Fatalf("row %d %q grouped with representative %q", i, row, rep)
		}
	}
	// Each column's dictionary holds every distinct exact string once.
	for j := range tb.Columns {
		distinct := map[string]bool{}
		for _, row := range tb.Rows {
			distinct[row[j]] = true
		}
		d := in.Dict(j)
		if d.Len() != len(distinct) {
			t.Fatalf("column %d dictionary has %d entries, want %d distinct values", j, d.Len(), len(distinct))
		}
		for c := 0; c < d.Len(); c++ {
			if !distinct[d.Value(int32(c))] {
				t.Fatalf("column %d code %d decodes to %q, not a cell value", j, c, d.Value(int32(c)))
			}
			delete(distinct, d.Value(int32(c)))
		}
	}
	// The decoy rows were appended in exact-duplicate pairs: each pair must
	// collapse into one signature group.
	base := spec.Table.NumRows()
	for k := 0; k < len(decoys); k++ {
		r := base + 2*k
		if in.GroupOf(r) != in.GroupOf(r+1) {
			t.Fatalf("duplicate decoy rows %d/%d landed in different groups", r, r+1)
		}
	}
}
