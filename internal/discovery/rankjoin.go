package discovery

import (
	"container/heap"
	"fmt"

	"katara/internal/pattern"
	"katara/internal/rdf"
	"katara/internal/telemetry"
)

// This file implements the top-k table-pattern search of §4.3.
//
// Algorithm 1 (PDiscovery) scans the ranked candidate lists in descending
// tf-idf order, joins compatible candidates into patterns, prunes dominated
// types (Algorithm 2) and stops once the k-th pattern's score exceeds the
// upper bound B of all unseen join results. We realise the same
// threshold-style guarantee as a best-first search over the ranked lists:
// a state's priority is its accumulated score plus an admissible upper
// bound on its unassigned lists (the per-list maximum tf-idf plus, for
// relationship lists, the maximum coherence any type can achieve with any
// candidate relationship — exactly the bound B of the paper). States whose
// bound falls below the current k-th score are never expanded, which
// subsumes TypePruning. The first k complete states popped are the exact
// top-k patterns.

// SearchStats reports how much of the candidate space the rank join
// actually explored — the observable form of Algorithm 1's early
// termination and Algorithm 2's pruning.
type SearchStats struct {
	// StatesExpanded counts best-first expansions (heap pops of partial
	// assignments).
	StatesExpanded int
	// StatesEnqueued counts generated child states.
	StatesEnqueued int
	// SpaceSize is the full Cartesian-product size the exhaustive
	// alternative would score.
	SpaceSize int
}

// TopK returns the k highest-scoring table patterns under the full scoring
// model of §4.2 (tf-idf + semantic coherence).
func TopK(c *Candidates, k int) []*pattern.Pattern {
	ps, _ := rankJoinStats(c, k, 1)
	return ps
}

// TopKNaive returns the k best patterns under naiveScore (§4.2), i.e. with
// the coherence term ablated.
func TopKNaive(c *Candidates, k int) []*pattern.Pattern {
	ps, _ := rankJoinStats(c, k, 0)
	return ps
}

// searchList is one ranked input list of the rank join: the candidate types
// of a column or the candidate relationships of a column pair.
type searchList struct {
	isPair     bool
	colIdx     int // index into c.Columns (type lists)
	pairIdx    int // index into c.Pairs (relationship lists)
	maxContrib float64
}

func rankJoinStats(c *Candidates, k int, coherenceWeight float64) ([]*pattern.Pattern, SearchStats) {
	var stats SearchStats
	if k <= 0 {
		return nil, stats
	}
	lists, colPos := buildLists(c, coherenceWeight)
	if len(lists) == 0 {
		return nil, stats
	}
	stats.SpaceSize = 1
	for _, l := range lists {
		stats.SpaceSize *= listLen(c, l)
		if stats.SpaceSize > 1<<30 {
			stats.SpaceSize = 1 << 30 // saturate; big enough to make the point
			break
		}
	}

	// state: choices[i] = item index in lists[i] for i < depth.
	type state struct {
		depth   int
		choices []int
		g       float64 // accumulated score
		f       float64 // g + admissible bound for remaining lists
	}
	suffixBound := make([]float64, len(lists)+1)
	for i := len(lists) - 1; i >= 0; i-- {
		suffixBound[i] = suffixBound[i+1] + lists[i].maxContrib
	}

	pq := &stateHeap{}
	heap.Init(pq)
	heap.Push(pq, &stateItem{f: suffixBound[0], st: state{f: suffixBound[0]}})

	tel := c.Options.Telemetry
	var out []*pattern.Pattern
	for pq.Len() > 0 && len(out) < k {
		// One best-first expansion = one rank-join iteration: a histogram
		// sample always, a journal span when tracing is on.
		itStart := tel.StartTimer()
		itSpan := tel.StartSpan("rank-join-iteration")
		top := heap.Pop(pq).(*stateItem)
		st := top.st.(state)
		stats.StatesExpanded++
		if st.depth == len(lists) {
			out = append(out, buildPattern(c, lists, colPos, st.choices, st.g))
			itSpan.SetInt("depth", int64(st.depth))
			itSpan.SetInt("complete", 1)
			itSpan.End()
			tel.ObserveSince(telemetry.HistRankJoinIter, itStart)
			continue
		}
		l := lists[st.depth]
		items := listLen(c, l)
		for it := 0; it < items; it++ {
			contrib := contribution(c, lists, colPos, st.choices, l, it, coherenceWeight)
			child := state{
				depth:   st.depth + 1,
				choices: append(append([]int(nil), st.choices...), it),
				g:       st.g + contrib,
			}
			child.f = child.g + suffixBound[child.depth]
			heap.Push(pq, &stateItem{f: child.f, st: child})
			stats.StatesEnqueued++
		}
		itSpan.SetInt("depth", int64(st.depth))
		itSpan.SetInt("enqueued", int64(items))
		itSpan.End()
		tel.ObserveSince(telemetry.HistRankJoinIter, itStart)
	}
	return out, stats
}

// buildLists orders the input lists: all typed columns first (so a pair's
// endpoint types are assigned before the pair), then pairs.
func buildLists(c *Candidates, coherenceWeight float64) ([]searchList, map[int]int) {
	var lists []searchList
	colPos := map[int]int{} // table column -> list position
	for i := range c.Columns {
		colPos[c.Columns[i].Col] = len(lists)
		maxTF := 0.0
		if len(c.Columns[i].Types) > 0 {
			maxTF = c.Columns[i].Types[0].TFIDF
		}
		lists = append(lists, searchList{colIdx: i, maxContrib: maxTF})
	}
	for i := range c.Pairs {
		p := &c.Pairs[i]
		maxC := 0.0
		for _, r := range p.Rels {
			v := r.TFIDF
			if coherenceWeight > 0 {
				if c.ColumnFor(p.From) != nil {
					v += coherenceWeight * r.Confidence * c.Stats.MaxSubSC(r.Prop)
				}
				if c.ColumnFor(p.To) != nil {
					v += coherenceWeight * r.Confidence * c.Stats.MaxObjSC(r.Prop)
				}
			}
			if v > maxC {
				maxC = v
			}
		}
		lists = append(lists, searchList{isPair: true, pairIdx: i, maxContrib: maxC})
	}
	return lists, colPos
}

func listLen(c *Candidates, l searchList) int {
	if l.isPair {
		return len(c.Pairs[l.pairIdx].Rels)
	}
	return len(c.Columns[l.colIdx].Types)
}

// contribution computes the score delta of choosing item it from list l,
// given the earlier choices (endpoint types for coherence).
func contribution(c *Candidates, lists []searchList, colPos map[int]int, choices []int, l searchList, it int, coherenceWeight float64) float64 {
	if !l.isPair {
		return c.Columns[l.colIdx].Types[it].TFIDF
	}
	p := &c.Pairs[l.pairIdx]
	r := p.Rels[it]
	v := r.TFIDF
	if coherenceWeight > 0 {
		if t := chosenType(c, colPos, choices, p.From); t != rdf.NoID {
			v += coherenceWeight * r.Confidence * c.Stats.SubSC(t, r.Prop)
		}
		if t := chosenType(c, colPos, choices, p.To); t != rdf.NoID {
			v += coherenceWeight * r.Confidence * c.Stats.ObjSC(t, r.Prop)
		}
	}
	return v
}

func chosenType(c *Candidates, colPos map[int]int, choices []int, col int) rdf.ID {
	pos, ok := colPos[col]
	if !ok || pos >= len(choices) {
		return rdf.NoID
	}
	cc := c.Columns[pos] // columns occupy the first len(c.Columns) list slots in order
	return cc.Types[choices[pos]].Type
}

func buildPattern(c *Candidates, lists []searchList, colPos map[int]int, choices []int, score float64) *pattern.Pattern {
	p := &pattern.Pattern{Score: score}
	seenCol := map[int]bool{}
	for i := range c.Columns {
		cc := &c.Columns[i]
		p.Nodes = append(p.Nodes, pattern.Node{Column: cc.Col, Type: cc.Types[choices[i]].Type})
		seenCol[cc.Col] = true
	}
	for i := range c.Pairs {
		pc := &c.Pairs[i]
		choice := choices[len(c.Columns)+i]
		p.Edges = append(p.Edges, pattern.Edge{From: pc.From, To: pc.To, Prop: pc.Rels[choice].Prop})
		for _, col := range []int{pc.From, pc.To} {
			if !seenCol[col] {
				seenCol[col] = true
				p.Nodes = append(p.Nodes, pattern.Node{Column: col, Type: rdf.NoID})
			}
		}
	}
	return p
}

// Score computes score(φ) of §4.2 for an arbitrary pattern against the
// candidate lists (tf-idf of its types/relationships plus coherence).
// Types or relationships absent from the candidate lists contribute 0.
func Score(p *pattern.Pattern, c *Candidates) float64 {
	return scoreWith(p, c, 1)
}

// NaiveScore computes naiveScore(φ): tf-idf only, no coherence.
func NaiveScore(p *pattern.Pattern, c *Candidates) float64 {
	return scoreWith(p, c, 0)
}

func scoreWith(p *pattern.Pattern, c *Candidates, coherenceWeight float64) float64 {
	s := 0.0
	for _, n := range p.Nodes {
		if n.Type == rdf.NoID {
			continue
		}
		if cc := c.ColumnFor(n.Column); cc != nil {
			for _, t := range cc.Types {
				if t.Type == n.Type {
					s += t.TFIDF
					break
				}
			}
		}
	}
	for _, e := range p.Edges {
		pc := c.PairFor(e.From, e.To)
		if pc == nil {
			continue
		}
		conf := 0.0
		for _, r := range pc.Rels {
			if r.Prop == e.Prop {
				s += r.TFIDF
				conf = r.Confidence
				break
			}
		}
		if coherenceWeight > 0 {
			if t := p.TypeOf(e.From); t != rdf.NoID {
				s += coherenceWeight * conf * c.Stats.SubSC(t, e.Prop)
			}
			if t := p.TypeOf(e.To); t != rdf.NoID {
				s += coherenceWeight * conf * c.Stats.ObjSC(t, e.Prop)
			}
		}
	}
	return s
}

// ExhaustiveTopK enumerates the entire candidate Cartesian product and
// returns the exact top-k patterns. It exists to validate RankJoin and for
// the ablation benchmarks; it refuses absurd search spaces.
func ExhaustiveTopK(c *Candidates, k int) ([]*pattern.Pattern, error) {
	lists, colPos := buildLists(c, 1)
	if len(lists) == 0 {
		return nil, nil
	}
	total := 1
	for _, l := range lists {
		total *= listLen(c, l)
		if total > 5_000_000 {
			return nil, fmt.Errorf("discovery: exhaustive search space too large")
		}
	}
	var best []*pattern.Pattern
	choices := make([]int, len(lists))
	var rec func(depth int, g float64)
	rec = func(depth int, g float64) {
		if depth == len(lists) {
			p := buildPattern(c, lists, colPos, choices, g)
			best = insertTopK(best, p, k)
			return
		}
		l := lists[depth]
		for it := 0; it < listLen(c, l); it++ {
			choices[depth] = it
			rec(depth+1, g+contribution(c, lists, colPos, choices[:depth], l, it, 1))
		}
	}
	rec(0, 0)
	return best, nil
}

func insertTopK(ps []*pattern.Pattern, p *pattern.Pattern, k int) []*pattern.Pattern {
	i := 0
	for i < len(ps) && ps[i].Score >= p.Score {
		i++
	}
	if i >= k {
		return ps
	}
	ps = append(ps, nil)
	copy(ps[i+1:], ps[i:])
	ps[i] = p
	if len(ps) > k {
		ps = ps[:k]
	}
	return ps
}

// stateHeap is a max-heap on f.
type stateItem struct {
	f  float64
	st interface{}
}

type stateHeap []*stateItem

func (h stateHeap) Len() int            { return len(h) }
func (h stateHeap) Less(i, j int) bool  { return h[i].f > h[j].f }
func (h stateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x interface{}) { *h = append(*h, x.(*stateItem)) }
func (h *stateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
