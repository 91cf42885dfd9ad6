// Package discovery implements KATARA's table-pattern discovery (§4): the
// candidate type/relationship generation of §4.1 (the Q_types and Q_rels
// lookups), the tf-idf + semantic-coherence scoring model of §4.2, the
// rank-join top-k pattern search of §4.3 (Algorithms 1–2), and the three
// baselines the paper compares against (Support, MaxLike, PGM).
package discovery

import (
	"runtime"
	"sort"

	"katara/internal/fanout"
	"katara/internal/kbstats"
	"katara/internal/provenance"
	"katara/internal/rdf"
	"katara/internal/resolve"
	"katara/internal/similarity"
	"katara/internal/table"
	"katara/internal/telemetry"
)

// Options tunes candidate generation.
type Options struct {
	// Threshold is the label-similarity threshold (default 0.7, §7).
	Threshold float64
	// Band keeps only resource matches scoring within Band of a cell's best
	// match (default 0.1) — the Lucene-style "take the top hits" behaviour.
	// An exact match therefore suppresses distant fuzzy hits, while a typo
	// cell (no exact match) still resolves through its best fuzzy matches.
	Band float64
	// MatchExponent sharpens the contribution weight of fuzzy matches:
	// weight = score^MatchExponent (default 4). Exact matches keep weight 1.
	MatchExponent int
	// MinSupport drops candidates whose weighted support is below this
	// fraction of the sampled rows (default 0.05), filtering the spurious
	// types/relationships that fuzzy label noise would otherwise inject.
	MinSupport float64
	// MinEdgeConfidence drops whole column pairs whose best relationship is
	// exhibited (weighted) by fewer than this fraction of rows (default
	// 0.15): a pattern should only assert relationships the data actually
	// carries. Low-coverage true relationships are sacrificed with it —
	// exactly the paper's University×DBpedia recall behaviour (§7.4).
	MinEdgeConfidence float64
	// MaxCandidates caps each ranked candidate list (0 = unlimited).
	MaxCandidates int
	// MaxRows samples at most this many rows per table for candidate
	// generation (0 = all rows). The paper distributes Person's 316K rows
	// over 30 machines; sampling is our single-machine equivalent.
	MaxRows int
	// Telemetry receives the KBLookups counter (one per uncached label
	// resolution); nil disables instrumentation. GenerateParallel's ranges
	// record into child pipelines merged into it after the join.
	Telemetry *telemetry.Pipeline
	// Resolver, when non-nil, handles label resolution instead of direct
	// kb.MatchLabel calls — typically a *resolve.Cache shared across pipeline
	// stages (and across GenerateParallel ranges) so each distinct cell value
	// hits the KB once. It must resolve against the same KB as the stats.
	Resolver resolve.Source
}

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = similarity.DefaultThreshold
	}
	if o.Band == 0 {
		o.Band = 0.1
	}
	if o.MatchExponent == 0 {
		o.MatchExponent = 4
	}
	if o.MinSupport == 0 {
		o.MinSupport = 0.05
	}
	if o.MinEdgeConfidence == 0 {
		o.MinEdgeConfidence = 0.15
	}
	return o
}

// ScoredType is one candidate type for a column with its normalised tf-idf
// score and raw support (number of cells resolving to that type).
type ScoredType struct {
	Type    rdf.ID
	TFIDF   float64
	Support int
}

// ScoredRel is one candidate relationship for an ordered column pair.
// Confidence is the weighted fraction of rows exhibiting the relationship;
// the coherence term of score(φ) is scaled by it, so a relationship backed
// by a handful of fuzzy matches cannot dominate the type choices of its
// endpoint columns.
type ScoredRel struct {
	Prop       rdf.ID
	TFIDF      float64
	Support    int
	Confidence float64
}

// ColumnCandidates holds the ranked candidate types of one column plus the
// per-row type memberships (type -> match weight) the scoring model and
// baselines need.
type ColumnCandidates struct {
	Col       int
	Types     []ScoredType         // descending by TFIDF, ties by discriminativeness
	CellTypes []map[rdf.ID]float64 // row -> type -> best match weight
}

// PairCandidates holds the ranked candidate relationships of one ordered
// column pair (From is the subject column, §3.2).
type PairCandidates struct {
	From, To int
	Rels     []ScoredRel
	CellRels []map[rdf.ID]float64
	// LiteralObject marks pairs whose relationships were found through
	// literal objects (Q²_rels): the To column maps to untyped literals.
	LiteralObject bool
}

// Candidates is the full candidate-generation output for one table.
type Candidates struct {
	Table   *table.Table
	Rows    []int // the sampled row indices candidate stats are built from
	Columns []ColumnCandidates
	Pairs   []PairCandidates
	Stats   *kbstats.Stats
	Options Options
}

// ColumnFor returns the candidates of column col, or nil.
func (c *Candidates) ColumnFor(col int) *ColumnCandidates {
	for i := range c.Columns {
		if c.Columns[i].Col == col {
			return &c.Columns[i]
		}
	}
	return nil
}

// PairFor returns the candidates of the ordered pair (from, to), or nil.
func (c *Candidates) PairFor(from, to int) *PairCandidates {
	for i := range c.Pairs {
		if c.Pairs[i].From == from && c.Pairs[i].To == to {
			return &c.Pairs[i]
		}
	}
	return nil
}

// weightedMatch is one resolved resource with its contribution weight.
type weightedMatch struct {
	res    rdf.ID
	weight float64
}

// Generate runs candidate type/relationship discovery for tbl against the
// KB behind stats. It performs, per cell, the equivalent of the paper's
// Q_types query (label → resource → types with subClassOf* closure, via the
// fuzzy label index standing in for LARQ) and, per ordered cell pair, the
// Q¹_rels/Q²_rels lookups (resource-object and literal-object
// relationships, with subPropertyOf* generalisation).
func Generate(tbl *table.Table, stats *kbstats.Stats, opts Options) *Candidates {
	return GenerateParallel(tbl, stats, opts, 1)
}

// GenerateParallel is Generate with the per-row evidence lookups fanned out
// over at most workers contiguous ranges of the sampled rows (<= 0 means
// GOMAXPROCS) — the single-machine analogue of the paper's distributed
// candidate generation ("we implemented a distributed version of candidate
// types/relationships generation by distributing the 316K tuples over 30
// machines, and all candidates are collected into one machine", §7.1). Each
// range resolves its rows against the shared read-only KB statistics with
// its own per-value caches; the tf-idf scoring then runs once over the
// evidence in row order, so the result is identical for every worker count.
func GenerateParallel(tbl *table.Table, stats *kbstats.Stats, opts Options, workers int) *Candidates {
	opts = opts.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 {
		// Ranges read the shared Stats concurrently; its lazily-memoised
		// pieces (closures, instance lists) must be computed up front.
		stats.Prewarm()
	}
	rows := sampleRows(tbl.NumRows(), opts.MaxRows)
	c := &Candidates{Table: tbl, Rows: rows, Stats: stats, Options: opts}
	ncols := tbl.NumCols()
	type pairKey struct{ from, to int }
	var pairs []pairKey
	for i := 0; i < ncols; i++ {
		for j := 0; j < ncols; j++ {
			if i != j {
				pairs = append(pairs, pairKey{i, j})
			}
		}
	}

	// Per-row evidence (§4.1): each sampled row's cell types and cell-pair
	// relationships, written by the range that owns the row.
	cellTypes := make([][]map[rdf.ID]float64, ncols)
	for col := range cellTypes {
		cellTypes[col] = make([]map[rdf.ID]float64, len(rows))
	}
	cellRels := make([][]relEvidence, len(pairs))
	for pi := range cellRels {
		cellRels[pi] = make([]relEvidence, len(rows))
	}
	fanout.Run(len(rows), workers, opts.Telemetry, nil, func(r fanout.Range, tel *telemetry.Pipeline, _ *provenance.Recorder) {
		ev := newEvidence(stats, opts, tel)
		for ri := r.Lo; ri < r.Hi; ri++ {
			row := rows[ri]
			for col := 0; col < ncols; col++ {
				cellTypes[col][ri] = ev.typesOf(tbl.Cell(row, col))
			}
			for pi, pk := range pairs {
				cellRels[pi][ri] = ev.relsOf(tbl.Cell(row, pk.from), tbl.Cell(row, pk.to))
			}
		}
	})

	minSupport := opts.MinSupport * float64(len(rows))

	// Candidate types per column (§4.1, Q_types + tf-idf ranking).
	for col := 0; col < ncols; col++ {
		cc := ColumnCandidates{Col: col, CellTypes: cellTypes[col]}
		tfidf := map[rdf.ID]float64{}
		support := map[rdf.ID]int{}
		weighted := map[rdf.ID]float64{}
		for _, cellT := range cc.CellTypes {
			idf := stats.IDF(len(cellT))
			for t, w := range cellT {
				tfidf[t] += w * stats.TF(t) * idf
				support[t]++
				weighted[t] += w
			}
		}
		maxScore := 0.0
		for t, v := range tfidf {
			if weighted[t] >= minSupport && v > maxScore {
				maxScore = v
			}
		}
		if maxScore == 0 {
			continue
		}
		for t, v := range tfidf {
			if weighted[t] < minSupport {
				continue
			}
			cc.Types = append(cc.Types, ScoredType{Type: t, TFIDF: v / maxScore, Support: support[t]})
		}
		sortTypes(cc.Types, stats)
		if opts.MaxCandidates > 0 && len(cc.Types) > opts.MaxCandidates {
			cc.Types = cc.Types[:opts.MaxCandidates]
		}
		c.Columns = append(c.Columns, cc)
	}

	// Candidate relationships per ordered column pair (§4.1, Q¹/Q²_rels).
	for pi, pk := range pairs {
		pc := PairCandidates{From: pk.from, To: pk.to, CellRels: make([]map[rdf.ID]float64, len(rows))}
		tfidf := map[rdf.ID]float64{}
		support := map[rdf.ID]int{}
		weighted := map[rdf.ID]float64{}
		literalW, resourceW := 0.0, 0.0
		for ri, e := range cellRels[pi] {
			pc.CellRels[ri] = e.rels
			literalW += e.literalW
			resourceW += e.resourceW
			idf := stats.RelIDF(len(e.rels))
			for p, w := range e.rels {
				tfidf[p] += w * stats.RelTF(p) * idf
				support[p]++
				weighted[p] += w
			}
		}
		maxScore := 0.0
		for p, v := range tfidf {
			if weighted[p] >= minSupport && v > maxScore {
				maxScore = v
			}
		}
		if maxScore == 0 {
			continue
		}
		pc.LiteralObject = literalW > resourceW
		for p, v := range tfidf {
			if weighted[p] < minSupport {
				continue
			}
			pc.Rels = append(pc.Rels, ScoredRel{
				Prop:       p,
				TFIDF:      v / maxScore,
				Support:    support[p],
				Confidence: weighted[p] / float64(len(rows)),
			})
		}
		sortRels(pc.Rels, stats)
		if opts.MaxCandidates > 0 && len(pc.Rels) > opts.MaxCandidates {
			pc.Rels = pc.Rels[:opts.MaxCandidates]
		}
		best := 0.0
		for _, r := range pc.Rels {
			if r.Confidence > best {
				best = r.Confidence
			}
		}
		if best < opts.MinEdgeConfidence {
			continue
		}
		c.Pairs = append(c.Pairs, pc)
	}
	return c
}

// relEvidence is one cell pair's relationships plus the weight found through
// resource objects (Q¹_rels) and literal objects (Q²_rels).
type relEvidence struct {
	rels                map[rdf.ID]float64
	literalW, resourceW float64
}

// evidence resolves cell values against the KB with per-value caches:
// tables are redundant, the KB is not small. One evidence serves one range
// of rows; the weighting is per-Options, so the weighted matches stay local
// even when raw resolution goes through a shared opts.Resolver.
type evidence struct {
	kb        *rdf.Store
	src       resolve.Source
	opts      Options
	tel       *telemetry.Pipeline
	resCache  map[string][]weightedMatch
	typeCache map[string]map[rdf.ID]float64
	pairCache map[[2]string]map[rdf.ID]float64
	litCache  map[[2]string]map[rdf.ID]float64
}

func newEvidence(stats *kbstats.Stats, opts Options, tel *telemetry.Pipeline) *evidence {
	kb := stats.KB()
	src := resolve.Source(kb)
	if opts.Resolver != nil {
		src = opts.Resolver
	}
	return &evidence{
		kb: kb, src: src, opts: opts, tel: tel,
		resCache:  map[string][]weightedMatch{},
		typeCache: map[string]map[rdf.ID]float64{},
		pairCache: map[[2]string]map[rdf.ID]float64{},
		litCache:  map[[2]string]map[rdf.ID]float64{},
	}
}

func (ev *evidence) resolve(val string) []weightedMatch {
	if r, ok := ev.resCache[val]; ok {
		return r
	}
	ev.tel.Inc(telemetry.KBLookups)
	hits := ev.src.MatchLabel(val, ev.opts.Threshold)
	var out []weightedMatch
	if len(hits) > 0 {
		best := hits[0].Score
		for _, m := range hits {
			if m.Score < best-ev.opts.Band {
				break // hits are sorted by score
			}
			w := 1.0
			for e := 0; e < ev.opts.MatchExponent; e++ {
				w *= m.Score
			}
			out = append(out, weightedMatch{res: m.Resource, weight: w})
		}
	}
	ev.resCache[val] = out
	return out
}

// typesOf is the Q_types lookup: every type (with subClassOf* closure) of
// the resources val resolves to, at the best match weight.
func (ev *evidence) typesOf(val string) map[rdf.ID]float64 {
	if t, ok := ev.typeCache[val]; ok {
		return t
	}
	set := map[rdf.ID]float64{}
	for _, m := range ev.resolve(val) {
		for _, t := range ev.kb.AllTypes(m.res) {
			if m.weight > set[t] {
				set[t] = m.weight
			}
		}
	}
	ev.typeCache[val] = set
	return set
}

// relsOf is the Q¹_rels/Q²_rels lookup for one ordered cell pair (a, b).
func (ev *evidence) relsOf(a, b string) relEvidence {
	e := relEvidence{rels: map[rdf.ID]float64{}}
	for p, w := range ev.relsBetween(a, b) {
		e.rels[p] = w
		e.resourceW += w
	}
	for p, w := range ev.relsToLiteral(a, b) {
		if w > e.rels[p] {
			e.rels[p] = w
			e.literalW += w
		}
	}
	return e
}

func (ev *evidence) relsBetween(a, b string) map[rdf.ID]float64 {
	key := [2]string{a, b}
	if r, ok := ev.pairCache[key]; ok {
		return r
	}
	set := map[rdf.ID]float64{}
	for _, xi := range ev.resolve(a) {
		for _, xj := range ev.resolve(b) {
			w := xi.weight * xj.weight
			for _, p := range ev.kb.PredicatesBetweenSub(xi.res, xj.res) {
				if w > set[p] {
					set[p] = w
				}
			}
		}
	}
	ev.pairCache[key] = set
	return set
}

func (ev *evidence) relsToLiteral(a, b string) map[rdf.ID]float64 {
	key := [2]string{a, b}
	if r, ok := ev.litCache[key]; ok {
		return r
	}
	set := map[rdf.ID]float64{}
	if lit := ev.kb.LookupTerm(rdf.Lit(b)); lit != rdf.NoID {
		for _, xi := range ev.resolve(a) {
			for _, p := range ev.kb.PredicatesBetweenSub(xi.res, lit) {
				if xi.weight > set[p] {
					set[p] = xi.weight
				}
			}
		}
	}
	ev.litCache[key] = set
	return set
}

// sortTypes orders candidates by tf-idf descending; ties go to the more
// discriminative type, i.e. fewer instances in the KB (§4.3). Types with
// identical extensions (a class and its only-child superclass) tie-break to
// the subclass — the most specific description of the column.
func sortTypes(ts []ScoredType, stats *kbstats.Stats) {
	kb := stats.KB()
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].TFIDF != ts[j].TFIDF {
			return ts[i].TFIDF > ts[j].TFIDF
		}
		ni, nj := stats.EntitiesOfType(ts[i].Type), stats.EntitiesOfType(ts[j].Type)
		if ni != nj {
			return ni < nj
		}
		if kb.IsSubClassOf(ts[i].Type, ts[j].Type) != kb.IsSubClassOf(ts[j].Type, ts[i].Type) {
			return kb.IsSubClassOf(ts[i].Type, ts[j].Type)
		}
		return ts[i].Type < ts[j].Type
	})
}

func sortRels(rs []ScoredRel, stats *kbstats.Stats) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].TFIDF != rs[j].TFIDF {
			return rs[i].TFIDF > rs[j].TFIDF
		}
		ni, nj := stats.NumFacts(rs[i].Prop), stats.NumFacts(rs[j].Prop)
		if ni != nj {
			return ni < nj
		}
		return rs[i].Prop < rs[j].Prop
	})
}

func sampleRows(n, max int) []int {
	if max <= 0 || n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Deterministic stride sampling: evenly spaced rows.
	out := make([]int, max)
	for i := 0; i < max; i++ {
		out[i] = i * n / max
	}
	return out
}
