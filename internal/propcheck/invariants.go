package propcheck

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"

	"katara"
	"katara/internal/annotation"
	"katara/internal/discovery"
	"katara/internal/kbstats"
	"katara/internal/pattern"
	"katara/internal/provenance"
	"katara/internal/rdf"
	"katara/internal/repair"
	"katara/internal/resolve"
	"katara/internal/similarity"
	"katara/internal/workload"
)

const eps = 1e-9

// checkAnnotationPartition asserts the §6.1 label partition: every tuple
// carries exactly one verdict, row order is preserved, Unknown appears only
// in a degraded run under DegradeMarkUnknown, degraded flags reconcile with
// the DegradeReport, and no facts are minted for Erroneous/Unknown tuples.
func checkAnnotationPartition(sc *Scenario, rep *katara.Report, degradedRun bool, policy katara.DegradePolicy) error {
	if got, want := len(rep.Annotations), sc.Dirty.NumRows(); got != want {
		return fmt.Errorf("got %d annotations for %d rows", got, want)
	}
	degraded := 0
	for i, t := range rep.Annotations {
		if t.Row != i {
			return fmt.Errorf("annotation %d carries row %d", i, t.Row)
		}
		switch t.Label {
		case katara.ValidatedByKB, katara.ValidatedByCrowd, katara.Erroneous:
		case katara.Unknown:
			if !degradedRun {
				return fmt.Errorf("row %d labelled Unknown outside a degraded run", i)
			}
			if policy != katara.DegradeMarkUnknown {
				return fmt.Errorf("row %d labelled Unknown under policy %v", i, policy)
			}
			if !t.Degraded {
				return fmt.Errorf("row %d labelled Unknown without its Degraded flag", i)
			}
		default:
			return fmt.Errorf("row %d carries label %d outside the §6.1 partition", i, t.Label)
		}
		if t.Degraded {
			degraded++
			if !degradedRun {
				return fmt.Errorf("row %d degraded in a run with no budget or deadline", i)
			}
		}
		if (t.Label == katara.Erroneous || t.Label == katara.Unknown) && len(t.NewFacts) > 0 {
			return fmt.Errorf("row %d labelled %v yet minted %d facts", i, t.Label, len(t.NewFacts))
		}
	}
	if degraded != rep.Degraded.Tuples {
		return fmt.Errorf("%d tuples carry the Degraded flag but DegradeReport.Tuples = %d", degraded, rep.Degraded.Tuples)
	}
	return nil
}

// checkRepairScope asserts that repairs only target rows flagged Erroneous,
// respect the top-k cap, and that each repair is internally consistent:
// nondecreasing costs, cost equal to the (unit-weight) number of changes,
// and every change rewriting the actual dirty cell to the aligned graph's
// value, never a no-op.
func checkRepairScope(sc *Scenario, rep *katara.Report) error {
	if rep.Degraded.RepairsSkipped {
		if len(rep.Repairs) != 0 {
			return fmt.Errorf("RepairsSkipped set but %d repair lists present", len(rep.Repairs))
		}
		return nil
	}
	errRows := erroneousRows(rep)
	for row, list := range rep.Repairs {
		if !errRows[row] {
			return fmt.Errorf("row %d has repairs but is not labelled Erroneous", row)
		}
		if len(list) > 3 {
			return fmt.Errorf("row %d: %d repairs exceed RepairK=3", row, len(list))
		}
		prev := math.Inf(-1)
		for rank, rp := range list {
			if rp.Cost < prev-eps {
				return fmt.Errorf("row %d: cost decreases at rank %d (%.6f after %.6f)", row, rank, rp.Cost, prev)
			}
			prev = rp.Cost
			if math.Abs(rp.Cost-float64(len(rp.Changes))) > eps {
				return fmt.Errorf("row %d rank %d: cost %.6f != %d unit-weight changes", row, rank, rp.Cost, len(rp.Changes))
			}
			seen := map[int]bool{}
			for _, ch := range rp.Changes {
				if ch.Col < 0 || ch.Col >= sc.Dirty.NumCols() {
					return fmt.Errorf("row %d rank %d: change column %d out of range", row, rank, ch.Col)
				}
				if seen[ch.Col] {
					return fmt.Errorf("row %d rank %d: duplicate change for column %d", row, rank, ch.Col)
				}
				seen[ch.Col] = true
				if ch.From != sc.Dirty.Cell(row, ch.Col) {
					return fmt.Errorf("row %d rank %d col %d: change.From %q != cell %q", row, rank, ch.Col, ch.From, sc.Dirty.Cell(row, ch.Col))
				}
				if ch.From == ch.To {
					return fmt.Errorf("row %d rank %d col %d: no-op change %q", row, rank, ch.Col, ch.From)
				}
				if rp.Graph != nil && rp.Graph.Value[ch.Col] != ch.To {
					return fmt.Errorf("row %d rank %d col %d: change.To %q != graph value %q", row, rank, ch.Col, ch.To, rp.Graph.Value[ch.Col])
				}
			}
		}
	}
	return nil
}

// countKBCoveredRewrites measures how many suggested changes touch a cell
// whose type check the KB passed (NodeByKB true). This is reported, not
// asserted: a domain-swap error (Italy → France) keeps the cell
// type-valid, so Alg. 4 legitimately rewrites type-covered cells — see
// DESIGN.md §12.
func countKBCoveredRewrites(rep *katara.Report) int {
	n := 0
	for row, list := range rep.Repairs {
		if row >= len(rep.Annotations) {
			continue
		}
		ann := rep.Annotations[row]
		for _, rp := range list {
			for _, ch := range rp.Changes {
				if ann.NodeByKB[ch.Col] {
					n++
				}
			}
		}
	}
	return n
}

// checkRepairRetrieval rebuilds the repair index the run used (BuildIndex
// is deterministic) and asserts, per erroneous row: the run's repairs match
// a fresh TopK, the inverted-list TopK matches the naive scan, and TopK is
// monotone in k (each TopK(k) is a prefix of TopK(k+1), costs
// nondecreasing).
func checkRepairRetrieval(sc *Scenario, rep *katara.Report, store *rdf.Store) error {
	if rep.Pattern == nil || len(rep.Pattern.Edges) == 0 || rep.Degraded.RepairsSkipped {
		return nil
	}
	rows := make([]int, 0, len(rep.Repairs))
	for r := range rep.Repairs {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	if len(rows) == 0 {
		return nil
	}
	ix := repair.BuildIndex(store, rep.Pattern, repair.Options{Workers: 1})
	const k = 3
	for _, row := range rows {
		tuple := sc.Dirty.Rows[row]
		got := ix.TopK(tuple, k)
		if !reflect.DeepEqual(rep.Repairs[row], got) {
			return fmt.Errorf("row %d: rebuilt TopK differs from the run's repairs", row)
		}
		naive := ix.TopKNaive(tuple, k)
		if !reflect.DeepEqual(got, naive) {
			return fmt.Errorf("row %d: inverted-list TopK differs from naive scan", row)
		}
		var prevList []repair.Repair
		for kk := 1; kk <= k+2; kk++ {
			cur := ix.TopK(tuple, kk)
			if len(cur) > kk {
				return fmt.Errorf("row %d: TopK(%d) returned %d repairs", row, kk, len(cur))
			}
			if len(cur) < len(prevList) {
				return fmt.Errorf("row %d: TopK(%d) returned fewer repairs than TopK(%d)", row, kk, kk-1)
			}
			for i := range prevList {
				if !reflect.DeepEqual(prevList[i], cur[i]) {
					return fmt.Errorf("row %d: TopK(%d) is not a prefix of TopK(%d)", row, kk-1, kk)
				}
			}
			for i := 1; i < len(cur); i++ {
				if cur[i].Cost < cur[i-1].Cost-eps {
					return fmt.Errorf("row %d: TopK(%d) costs not nondecreasing", row, kk)
				}
			}
			prevList = cur
		}
	}
	return nil
}

// checkProvenance asserts the lineage contracts on a recording run and
// returns the run's serialized journal for cross-configuration comparison:
//   - the journal is well-formed (LintJournal passes);
//   - every repaired cell explains to a non-empty evidence chain;
//   - recorded candidates are in (cost, graph) rank order, so re-sorting
//     them is a no-op and rank 0 is the winner;
//   - the winner replays to the repair the pipeline actually applied,
//     change for change.
func checkProvenance(sc *Scenario, rep *katara.Report) ([]byte, error) {
	rec := rep.Provenance
	if !rec.Enabled() {
		return nil, fmt.Errorf("provenance run returned a disabled recorder")
	}
	var buf bytes.Buffer
	if err := rec.WriteJournal(&buf); err != nil {
		return nil, fmt.Errorf("provenance journal write: %w", err)
	}
	if err := provenance.LintJournal(bytes.NewReader(buf.Bytes())); err != nil {
		return nil, fmt.Errorf("provenance journal lint: %w", err)
	}
	for row, list := range rep.Repairs {
		if len(list) == 0 {
			continue
		}
		applied := list[0]
		for _, ch := range applied.Changes {
			e := rec.Explain(row, ch.Col)
			if e.Empty() || e.Repair == nil || len(e.Repair.Candidates) == 0 {
				return nil, fmt.Errorf("repaired cell (%d,%d) has no evidence chain", row, ch.Col)
			}
			cands := e.Repair.Candidates
			if !sort.SliceIsSorted(cands, func(i, j int) bool {
				if cands[i].Cost != cands[j].Cost {
					return cands[i].Cost < cands[j].Cost
				}
				return cands[i].Graph < cands[j].Graph
			}) {
				return nil, fmt.Errorf("cell (%d,%d): recorded candidates not in (cost, graph) rank order", row, ch.Col)
			}
			winner := cands[0]
			if len(winner.Changes) != len(applied.Changes) {
				return nil, fmt.Errorf("cell (%d,%d): winner has %d changes, applied repair %d",
					row, ch.Col, len(winner.Changes), len(applied.Changes))
			}
			for i, wc := range winner.Changes {
				ac := applied.Changes[i]
				if wc.Col != ac.Col || wc.From != ac.From || wc.To != ac.To {
					return nil, fmt.Errorf("cell (%d,%d): winner change %d (%+v) does not replay the applied change (%+v)",
						row, ch.Col, i, wc, ac)
				}
			}
			if e.Change == nil || e.Change.From != ch.From || e.Change.To != ch.To {
				return nil, fmt.Errorf("cell (%d,%d): explanation's applied change does not match the repair", row, ch.Col)
			}
		}
	}
	return buf.Bytes(), nil
}

// checkRankJoin compares the rank-join search against brute-force
// enumeration: same length, the same score at every rank, every rank-join
// pattern's score self-consistent with a recomputation, and every pattern
// strictly above the exhaustive cutoff present in the exhaustive list (at
// the cutoff itself, ties may resolve to different but equally-scored
// patterns). Returns skipped=true when the candidate space exceeds
// ExhaustiveTopK's refusal bound.
func checkRankJoin(cands *discovery.Candidates) (skipped bool, err error) {
	const k = 5
	topk := discovery.TopK(cands, k)
	ex, exErr := discovery.ExhaustiveTopK(cands, k)
	if exErr != nil {
		return true, nil
	}
	if len(topk) != len(ex) {
		return false, fmt.Errorf("rank-join returned %d patterns, exhaustive %d", len(topk), len(ex))
	}
	for i := range topk {
		if math.Abs(topk[i].Score-ex[i].Score) > eps {
			return false, fmt.Errorf("rank %d: rank-join score %.9f != exhaustive %.9f", i, topk[i].Score, ex[i].Score)
		}
		if re := discovery.Score(topk[i], cands); math.Abs(re-topk[i].Score) > eps {
			return false, fmt.Errorf("rank %d: reported score %.9f != recomputed %.9f", i, topk[i].Score, re)
		}
	}
	if len(ex) > 0 {
		cutoff := ex[len(ex)-1].Score
		keys := map[string]bool{}
		for _, p := range ex {
			keys[p.Key()] = true
		}
		for i, p := range topk {
			if p.Score > cutoff+eps && !keys[p.Key()] {
				return false, fmt.Errorf("rank %d: pattern %s above the cutoff is missing from exhaustive", i, p.Key())
			}
		}
	}
	return false, nil
}

// checkResolverDifferential asserts cache-on ≡ cache-off: candidate
// generation and annotation produce identical outputs whether label
// resolution goes through resolve.Cache or hits the KB directly.
func checkResolverDifferential(sc *Scenario, stats *kbstats.Stats, base *discovery.Candidates) error {
	cache := resolve.New(sc.KB.Store, similarity.DefaultThreshold)
	cached := discovery.Generate(sc.Dirty, stats, discovery.Options{MaxCandidates: 4, Resolver: cache})
	if !reflect.DeepEqual(base.Columns, cached.Columns) {
		return fmt.Errorf("cached resolution changed column candidates")
	}
	if !reflect.DeepEqual(base.Pairs, cached.Pairs) {
		return fmt.Errorf("cached resolution changed pair candidates")
	}

	// Annotation half. Clones share term IDs, so a pattern discovered on one
	// clone applies to its sibling; each run still needs its own clone
	// because enrichment mutates the store.
	kbA, kbB := sc.KB.Store.Clone(), sc.KB.Store.Clone()
	candsA := discovery.Generate(sc.Dirty, kbstats.New(kbA), discovery.Options{MaxCandidates: 4})
	ps := discovery.TopK(candsA, 1)
	if len(ps) == 0 {
		return nil
	}
	p := ps[0]
	direct := annotateWith(sc, p, kbA, nil)
	viaCache := annotateWith(sc, p, kbB, resolve.New(kbB, similarity.DefaultThreshold))
	if !reflect.DeepEqual(direct, viaCache) {
		return fmt.Errorf("cached annotation differs from direct annotation")
	}
	return nil
}

func annotateWith(sc *Scenario, p *pattern.Pattern, kb *rdf.Store, resolver pattern.LabelSource) *annotation.Result {
	ann := &annotation.Annotator{
		KB:       kb,
		Pattern:  p,
		Crowd:    newOracleCrowd(),
		Oracle:   workload.WorldOracle{W: sc.World, KB: sc.KB},
		Enrich:   true,
		Resolver: resolver,
	}
	return ann.Annotate(sc.Dirty)
}
