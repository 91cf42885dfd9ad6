package katara

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"katara/internal/fanout"
	"katara/internal/table"
	"katara/internal/workload"
	"katara/internal/world"
)

// shardFixture builds a fresh dirty table plus a factory producing an
// identically-configured Cleaner over a pristine KB clone — sharded-vs-
// unsharded comparisons must not share mutable state (enrichment writes to
// the KB, the crowd RNG advances) across runs.
func shardFixture(t *testing.T, rows int) (*Table, func(opts Options) *Cleaner) {
	t.Helper()
	const seed = 77
	w := world.New(seed, world.Config{
		Persons: 300, Players: 120, Clubs: 24, Universities: 80, Films: 40, Books: 40,
	})
	kb := workload.DBpediaLike(w, seed)
	spec := workload.PersonTable(w, seed, rows)
	dirty := spec.Table.Clone()
	rng := rand.New(rand.NewSource(seed))
	if injected := table.InjectErrors(dirty, []int{1, 2, 3}, 0.10, rng); len(injected) == 0 {
		t.Fatal("no errors injected")
	}
	newCleaner := func(opts Options) *Cleaner {
		opts.ValidationOracle = workload.SpecOracle{Spec: spec, KB: kb}
		opts.FactOracle = workload.WorldOracle{W: w, KB: kb}
		if opts.RepairK == 0 {
			opts.RepairK = 3
		}
		return NewCleaner(kb.Store.Clone(), NewCrowd(10, 0.97, seed), opts)
	}
	return dirty, newCleaner
}

// stripTimings drops the wall-clock-bearing snapshot so reports can be
// compared structurally; everything else in a Report is deterministic.
func stripTimings(r *Report) *Report {
	cp := *r
	cp.Timings = nil
	return &cp
}

// TestShardedMatchesUnsharded is the root-level `sharded(T, N) ≡
// unsharded(T)` invariant: for every worker count the full report —
// pattern, annotations, enrichment facts, repairs, crowd accounting,
// degradation flags — is identical. (The propcheck harness re-proves this byte-for-byte
// on canonical serializations; this test keeps the property one `go test ./`
// away.)
func TestShardedMatchesUnsharded(t *testing.T) {
	dirty, newCleaner := shardFixture(t, 400)
	base, err := newCleaner(Options{}).Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	want := stripTimings(base)
	if len(want.Repairs) == 0 {
		t.Fatal("fixture produced no repairs; the invariant would be vacuous")
	}
	for _, shards := range []int{1, 2, 3, 4, runtime.GOMAXPROCS(0), 97} {
		got, err := newCleaner(Options{Telemetry: true, Workers: shards}).Clean(dirty)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.Timings == nil {
			t.Fatalf("workers=%d: Telemetry option lost in the fan-out path", shards)
		}
		var kbLookups int64
		for _, c := range got.Timings.Counters {
			if c.Name == "kb-lookups" {
				kbLookups = c.Value
			}
		}
		if kbLookups == 0 {
			t.Fatalf("workers=%d: range telemetry not merged, kb-lookups = 0", shards)
		}
		if !reflect.DeepEqual(stripTimings(got), want) {
			t.Errorf("workers=%d: report differs from unsharded run", shards)
		}
	}
}

// TestShardsOptionWired: the deprecated Options.Shards alias still drives
// the fan-out (folded into Workers), and negative means GOMAXPROCS.
func TestShardsOptionWired(t *testing.T) {
	dirty, newCleaner := shardFixture(t, 200)
	want, err := newCleaner(Options{}).Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, -1} {
		got, err := newCleaner(Options{Shards: shards}).Clean(dirty)
		if err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(stripTimings(got), stripTimings(want)) {
			t.Errorf("Shards=%d: report differs from unsharded run", shards)
		}
	}
}

// TestShardedDeadlineDegrades: the sharded path honours the same graceful-
// degradation contract as the serial one — an immediately-expired deadline
// still yields a report, with repairs skipped and the degradation flagged.
func TestShardedDeadlineDegrades(t *testing.T) {
	dirty, newCleaner := shardFixture(t, 200)
	rep, err := newCleaner(Options{Deadline: time.Nanosecond, Shards: 4}).Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded.RepairsSkipped {
		t.Error("expired deadline did not flag RepairsSkipped in sharded run")
	}
	if len(rep.Repairs) != 0 {
		t.Errorf("expired deadline still produced %d repairs", len(rep.Repairs))
	}
	if len(rep.Annotations) != dirty.NumRows() {
		t.Errorf("degraded run annotated %d/%d tuples", len(rep.Annotations), dirty.NumRows())
	}
}

// TestShardRanges checks the executor's range partitioner: full cover,
// contiguity, near-equal balance, and sane clamping at the edges.
func TestShardRanges(t *testing.T) {
	cases := []struct {
		n, shards, want int
	}{
		{10, 3, 3}, {10, 1, 1}, {10, 10, 10}, {3, 8, 3},
		{1, 4, 1}, {10, 0, 1}, {10, -2, 1}, {1000, 7, 7},
	}
	for _, c := range cases {
		ranges := fanout.Ranges(c.n, c.shards)
		if len(ranges) != c.want {
			t.Errorf("Ranges(%d, %d) = %d ranges, want %d", c.n, c.shards, len(ranges), c.want)
			continue
		}
		lo := 0
		for _, rg := range ranges {
			if rg.Lo != lo || rg.Hi <= rg.Lo {
				t.Fatalf("Ranges(%d, %d): bad range %+v at lo=%d", c.n, c.shards, rg, lo)
			}
			lo = rg.Hi
		}
		if lo != c.n {
			t.Errorf("Ranges(%d, %d) covers %d rows", c.n, c.shards, lo)
		}
		min, max := c.n, 0
		for _, rg := range ranges {
			if s := rg.Hi - rg.Lo; s < min {
				min = s
			} else if s > max {
				max = s
			}
		}
		if max > 0 && max-min > 1 {
			t.Errorf("Ranges(%d, %d): imbalance min=%d max=%d", c.n, c.shards, min, max)
		}
	}
}

// TestShardedPersonScale pushes a sharded clean over a table an order of
// magnitude beyond the default workload — the single-machine stand-in for
// the paper's 316K-row Person run that originally needed a 30-machine
// cluster. Skipped under -short.
func TestShardedPersonScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large sharded run skipped with -short")
	}
	dirty, newCleaner := shardFixture(t, 20000)
	rep, err := newCleaner(Options{Workers: runtime.GOMAXPROCS(0)}).Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Annotations) != dirty.NumRows() {
		t.Fatalf("annotated %d/%d tuples", len(rep.Annotations), dirty.NumRows())
	}
	if len(rep.Repairs) == 0 {
		t.Fatal("no repairs at scale")
	}
}

// TestShardPanicIsolationEveryFanOut injects a panic on the k-th range of a
// Workers: 2 clean, for every k up to the number of ranges the clean runs:
// the four fan-outs (discovery candidate generation, annotation coverage,
// instance-graph enumeration and repair retrieval) each run two ranges
// here. Every injected panic must reach the recovering caller as a
// *PanicError carrying the worker's stack — an unguarded worker would kill
// the test binary instead.
func TestShardPanicIsolationEveryFanOut(t *testing.T) {
	dirty, newCleaner := shardFixture(t, 200)
	var calls atomic.Int64
	ShardPanicHook = func(int) { calls.Add(1) }
	defer func() { ShardPanicHook = nil }()
	if _, err := newCleaner(Options{Workers: 2}).Clean(dirty); err != nil {
		t.Fatal(err)
	}
	total := calls.Load()
	if total < 8 {
		t.Fatalf("a Workers: 2 clean ran %d ranges, want at least 2 per fan-out (8)", total)
	}
	for k := int64(1); k <= total; k++ {
		calls.Store(0)
		ShardPanicHook = func(shard int) {
			if calls.Add(1) == k {
				panic(fmt.Sprintf("injected panic %d in range %d", k, shard))
			}
		}
		var got any
		func() {
			defer func() { got = recover() }()
			newCleaner(Options{Workers: 2}).Clean(dirty)
		}()
		pe, ok := got.(*PanicError)
		if !ok {
			t.Fatalf("k=%d: recovered %T (%v), want *PanicError", k, got, got)
		}
		if !strings.Contains(pe.Error(), fmt.Sprintf("injected panic %d ", k)) ||
			!strings.Contains(pe.Stack, "runShardGuarded") {
			t.Fatalf("k=%d: %v, stack:\n%s", k, pe, pe.Stack)
		}
	}
}
