package fanout

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"katara/internal/provenance"
	"katara/internal/telemetry"
)

// TestRunCoversEveryUnitOnce: the ranges of a fan-out partition [0, n) —
// every unit visited exactly once — for serial, split and oversized worker
// counts.
func TestRunCoversEveryUnitOnce(t *testing.T) {
	for _, c := range []struct{ n, p int }{{0, 4}, {1, 4}, {7, 1}, {7, 3}, {100, 4}, {10, 64}} {
		seen := make([]int, c.n)
		Run(c.n, c.p, nil, nil, func(r Range, _ *telemetry.Pipeline, _ *provenance.Recorder) {
			for i := r.Lo; i < r.Hi; i++ {
				seen[i]++
			}
		})
		for i, k := range seen {
			if k != 1 {
				t.Fatalf("n=%d p=%d: unit %d visited %d times", c.n, c.p, i, k)
			}
		}
	}
}

// TestRunSmallInputIsOneRange: a fan-out never splits below two units per
// range, and a single range runs with the caller's own pipeline and
// recorder instead of children.
func TestRunSmallInputIsOneRange(t *testing.T) {
	tel := telemetry.New()
	rec := provenance.NewRecorder()
	var ranges []Range
	Run(3, 4, tel, rec, func(r Range, rtel *telemetry.Pipeline, rrec *provenance.Recorder) {
		ranges = append(ranges, r)
		if rtel != tel || rrec != rec {
			t.Error("single range did not receive the parent pipeline and recorder")
		}
	})
	if len(ranges) != 1 || ranges[0] != (Range{0, 3}) {
		t.Fatalf("ranges = %v, want one range [0, 3)", ranges)
	}
}

// TestRunMergesChildren: split ranges record into child pipelines and
// recorders, which merge into the parents after the join.
func TestRunMergesChildren(t *testing.T) {
	tel := telemetry.New()
	rec := provenance.NewRecorder()
	var mu sync.Mutex
	var children []*telemetry.Pipeline
	Run(8, 4, tel, rec, func(r Range, rtel *telemetry.Pipeline, rrec *provenance.Recorder) {
		mu.Lock()
		children = append(children, rtel)
		mu.Unlock()
		for i := r.Lo; i < r.Hi; i++ {
			rtel.Inc(telemetry.KBLookups)
			rrec.RecordRepair(i, 1, nil)
		}
	})
	if len(children) != 4 {
		t.Fatalf("%d ranges, want 4", len(children))
	}
	for _, c := range children {
		if c == tel {
			t.Fatal("a split range recorded straight into the parent pipeline")
		}
	}
	if got := tel.Get(telemetry.KBLookups); got != 8 {
		t.Fatalf("merged KBLookups = %d, want 8", got)
	}
	var journal bytes.Buffer
	if err := rec.WriteJournal(&journal); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(journal.String(), `"type":"repair"`); got != 8 {
		t.Fatalf("merged recorder holds %d repair records, want 8:\n%s", got, journal.String())
	}
}

// TestRunPanicBecomesPanicError: a panic in any range, split or serial,
// reaches the caller as *PanicError after the join, with the worker's stack;
// the hook sees every range index.
func TestRunPanicBecomesPanicError(t *testing.T) {
	for _, p := range []int{1, 4} {
		var mu sync.Mutex
		hooked := map[int]bool{}
		Hook = func(shard int) {
			mu.Lock()
			hooked[shard] = true
			mu.Unlock()
		}
		var got any
		func() {
			defer func() { got = recover() }()
			Run(8, p, nil, nil, func(r Range, _ *telemetry.Pipeline, _ *provenance.Recorder) {
				if r.Lo == 0 {
					panic("boom")
				}
			})
		}()
		Hook = nil
		pe, ok := got.(*PanicError)
		if !ok {
			t.Fatalf("p=%d: recovered %T (%v), want *PanicError", p, got, got)
		}
		if pe.Error() != "panic in shard worker: boom" || !strings.Contains(pe.Stack, "runShardGuarded") {
			t.Fatalf("p=%d: %v, stack:\n%s", p, pe, pe.Stack)
		}
		if len(hooked) != p {
			t.Fatalf("p=%d: hook saw ranges %v", p, hooked)
		}
	}
}

// TestRunKeepsNestedPanicError: a *PanicError re-raised by a nested fan-out
// is passed through unchanged, keeping the innermost worker's stack.
func TestRunKeepsNestedPanicError(t *testing.T) {
	inner := &PanicError{Value: "inner", Stack: "origin"}
	var got any
	func() {
		defer func() { got = recover() }()
		Run(4, 2, nil, nil, func(Range, *telemetry.Pipeline, *provenance.Recorder) { panic(inner) })
	}()
	if got != inner {
		t.Fatalf("recovered %v, want the nested *PanicError unchanged", got)
	}
}

// TestRanges checks the partitioner's clamping at the edges.
func TestRanges(t *testing.T) {
	for _, c := range []struct {
		n, p int
		want string
	}{
		{10, 3, "[{0 4} {4 7} {7 10}]"}, {3, 8, "[{0 1} {1 2} {2 3}]"}, {10, 0, "[{0 10}]"}, {0, 2, "[]"},
	} {
		if got := fmt.Sprint(Ranges(c.n, c.p)); got != c.want {
			t.Errorf("Ranges(%d, %d) = %s, want %s", c.n, c.p, got, c.want)
		}
	}
}
