package table

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Table {
	t := New("soccer", "A", "B", "C")
	t.Append("Rossi", "Italy", "Rome")
	t.Append("Klate", "S. Africa", "Pretoria")
	t.Append("Pirlo", "Italy", "Madrid")
	return t
}

func TestAppendAndAccess(t *testing.T) {
	tb := sample()
	if tb.NumRows() != 3 || tb.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if tb.Cell(2, 2) != "Madrid" {
		t.Fatalf("Cell(2,2) = %q", tb.Cell(2, 2))
	}
}

func TestAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong arity")
		}
	}()
	sample().Append("only-one")
}

func TestCloneIsDeep(t *testing.T) {
	a := sample()
	b := a.Clone()
	b.Rows[0][0] = "changed"
	if a.Rows[0][0] == "changed" {
		t.Fatal("Clone shares row storage")
	}
	b.Columns[0] = "X"
	if a.Columns[0] == "X" {
		t.Fatal("Clone shares column storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	a := sample()
	a.Append(`comma, "quote"`, "new\nline", "")
	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadCSV("soccer", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Columns, b.Columns) || !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("round trip changed the table:\n%v\n%v", a.Rows, b.Rows)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadCSV("x", strings.NewReader("a,b\n1,2,3\n")); err == nil {
		t.Error("ragged row should fail")
	}
}

// assertChangedExactly fails unless the cells of dirty that differ from
// clean are exactly the reported refs, each reported once.
func assertChangedExactly(t *testing.T, clean, dirty *Table, refs []CellRef) {
	t.Helper()
	reported := map[CellRef]bool{}
	for _, c := range refs {
		if reported[c] {
			t.Fatalf("cell %v reported twice", c)
		}
		reported[c] = true
	}
	for i := range clean.Rows {
		for j := range clean.Rows[i] {
			c := CellRef{Row: i, Col: j}
			if changed := clean.Rows[i][j] != dirty.Rows[i][j]; changed != reported[c] {
				t.Fatalf("cell %v changed=%v, reported=%v", c, changed, reported[c])
			}
		}
	}
}

func TestInjectErrorsRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := New("t", "A", "B")
	for i := 0; i < 5000; i++ {
		tb.Append("v"+string(rune('a'+i%26)), "w"+string(rune('a'+i%17)))
	}
	clean := tb.Clone()
	injected := InjectErrors(tb, []int{0, 1}, 0.1, rng)
	frac := float64(len(injected)) / float64(tb.NumRows())
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("injection rate %f, want ~0.10", frac)
	}
	// Every reported cell must actually differ from the clean table, and
	// nothing else may differ.
	assertChangedExactly(t, clean, tb, injected)
}

func TestInjectErrorsRespectsColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := New("t", "A", "B", "C")
	for i := 0; i < 200; i++ {
		tb.Append("a"+string(rune('0'+i%10)), "b"+string(rune('0'+i%7)), "c"+string(rune('0'+i%5)))
	}
	injected := InjectErrors(tb, []int{1}, 0.5, rng)
	if len(injected) == 0 {
		t.Fatal("no errors injected")
	}
	for _, c := range injected {
		if c.Col != 1 {
			t.Fatalf("error injected outside allowed columns: %v", c)
		}
	}
}

func TestInjectErrorsConstantColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := New("t", "A")
	for i := 0; i < 50; i++ {
		tb.Append("same")
	}
	// A constant column can only be corrupted by typos; whatever happens,
	// reported refs must be real changes.
	clean := tb.Clone()
	injected := InjectErrors(tb, []int{0}, 1.0, rng)
	assertChangedExactly(t, clean, tb, injected)
}

func TestInjectErrorsDeterministic(t *testing.T) {
	mk := func() (*Table, []CellRef) {
		tb := New("t", "A", "B")
		for i := 0; i < 300; i++ {
			tb.Append("a"+string(rune('0'+i%10)), "b"+string(rune('0'+i%9)))
		}
		refs := InjectErrors(tb, []int{0, 1}, 0.2, rand.New(rand.NewSource(99)))
		return tb, refs
	}
	t1, r1 := mk()
	t2, r2 := mk()
	if len(r1) != len(r2) {
		t.Fatal("nondeterministic injection count")
	}
	if !reflect.DeepEqual(t1.Rows, t2.Rows) {
		t.Fatal("nondeterministic corruption")
	}
}

func TestTypoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(s string) bool {
		out := typo(s, rng)
		// A typo changes length by at most 1 and never panics.
		dl := len([]rune(out)) - len([]rune(s))
		if s == "" {
			return out == "x"
		}
		return dl >= -1 && dl <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
