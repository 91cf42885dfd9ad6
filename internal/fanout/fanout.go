// Package fanout is the one data-parallel executor every pipeline stage
// shares. KATARA's scale-out is a single idea — the paper spreads the 316K
// Person tuples over 30 machines for candidate generation (§7.1), and §6.1
// KB coverage is independent per tuple — so candidate generation,
// instance-graph enumeration, annotation coverage and repair retrieval all
// run through Run: split the work units [0, n) into contiguous ranges, give
// each range its own telemetry pipeline and provenance recorder, and merge
// them back in range order after the join. A serial run is the same path
// with one range.
package fanout

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"katara/internal/provenance"
	"katara/internal/telemetry"
)

// PanicError is a panic recovered from a range's work, carrying the
// original goroutine's stack. Run re-raises it on the calling goroutine
// after every range has joined — so a panic in one range never leaks a
// goroutine or deadlocks the merge, and callers that isolate panics (the job
// server) can preserve the true origin stack instead of the re-raise site's.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in shard worker: %v", e.Value)
}

// Hook is a test seam: when non-nil it runs at the start of every range's
// work with the range index, letting tests inject a panic inside a real
// worker. The katara package routes its exported ShardPanicHook here.
var Hook func(shard int)

// Range is one contiguous unit range [Lo, Hi).
type Range struct{ Lo, Hi int }

// Ranges splits n units into at most p contiguous ranges of near-equal size
// (the first n%p ranges take one extra unit). Empty ranges are never
// produced; p < 1 means one range.
func Ranges(n, p int) []Range {
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	out := make([]Range, 0, p)
	base, extra := n/p, n%p
	lo := 0
	for i := 0; i < p; i++ {
		size := base
		if i < extra {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Run calls f once per range of the units [0, n), split into at most p
// ranges of at least two units each. With one range f runs on the calling
// goroutine and records straight into tel and rec. With several, each range
// runs on its own goroutine with a child telemetry pipeline (nil when tel is
// nil) and a child provenance recorder (nil when rec is disabled); after all
// ranges join, the children merge into tel and rec in range order, so the
// merged state does not depend on which goroutine finished first. f must
// only touch state owned by its range. The first panic in any range is
// re-raised on the caller as a *PanicError once every range has returned.
func Run(n, p int, tel *telemetry.Pipeline, rec *provenance.Recorder, f func(r Range, tel *telemetry.Pipeline, rec *provenance.Recorder)) {
	if p > n/2 {
		p = n / 2
	}
	ranges := Ranges(n, p)
	var first atomic.Pointer[PanicError]
	defer rethrow(&first)
	if len(ranges) == 1 {
		runShardGuarded(&first, 0, func() { f(ranges[0], tel, rec) })
		return
	}
	tels := make([]*telemetry.Pipeline, len(ranges))
	recs := make([]*provenance.Recorder, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		if tel != nil {
			tels[i] = telemetry.New()
		}
		recs[i] = rec.Child()
		wg.Add(1)
		go func() {
			defer wg.Done()
			runShardGuarded(&first, i, func() { f(r, tels[i], recs[i]) })
		}()
	}
	wg.Wait()
	if first.Load() != nil {
		return
	}
	for i := range ranges {
		tel.Merge(tels[i])
		rec.Merge(recs[i])
	}
}

// runShardGuarded runs one range's work with panic capture: the first
// panicking range parks a *PanicError in first (a nested fan-out's
// *PanicError is kept as is), the rest are dropped, and the function returns
// normally so the join always completes.
func runShardGuarded(first *atomic.Pointer[PanicError], shard int, f func()) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PanicError)
			if !ok {
				pe = &PanicError{Value: r, Stack: string(debug.Stack())}
			}
			first.CompareAndSwap(nil, pe)
		}
	}()
	if h := Hook; h != nil {
		h(shard)
	}
	f()
}

// rethrow re-raises a captured range panic on the caller, after the join.
func rethrow(first *atomic.Pointer[PanicError]) {
	if pe := first.Load(); pe != nil {
		panic(pe)
	}
}
