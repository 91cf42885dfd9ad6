// Package metrics implements the paper's evaluation metrics (§7.1, §7.4):
// pattern precision/recall with hierarchy partial credit 1/(s+1), top-k
// F-measure, and repair precision/recall/F-measure.
package metrics

import (
	"katara/internal/pattern"
	"katara/internal/rdf"
)

// PR is a precision/recall pair.
type PR struct {
	Precision, Recall float64
}

// F returns the harmonic mean of precision and recall.
func (pr PR) F() float64 {
	if pr.Precision+pr.Recall == 0 {
		return 0
	}
	return 2 * pr.Precision * pr.Recall / (pr.Precision + pr.Recall)
}

// typeScore returns the §7.1 credit for predicting `pred` when the truth is
// `truth`: 1 if equal, 1/(s+1) if pred is a strict superclass s steps above
// truth, 0 otherwise.
func typeScore(kb *rdf.Store, pred, truth rdf.ID) float64 {
	if pred == truth {
		return 1
	}
	if pred == rdf.NoID || truth == rdf.NoID {
		return 0
	}
	if s := stepsUp(kb, truth, pred, kb.SubClassOfID); s > 0 {
		return 1 / float64(s+1)
	}
	return 0
}

func relScore(kb *rdf.Store, pred, truth rdf.ID) float64 {
	if pred == truth {
		return 1
	}
	if pred == rdf.NoID || truth == rdf.NoID {
		return 0
	}
	if s := stepsUp(kb, truth, pred, kb.SubPropertyOfID); s > 0 {
		return 1 / float64(s+1)
	}
	return 0
}

// stepsUp returns the minimal number of subClassOf/subPropertyOf hops from
// `from` up to `to`, or 0 if `to` is not an ancestor.
func stepsUp(kb *rdf.Store, from, to, via rdf.ID) int {
	type qe struct {
		node rdf.ID
		dist int
	}
	queue := []qe{{from, 0}}
	seen := map[rdf.ID]bool{from: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, up := range kb.Objects(cur.node, via) {
			if up == to {
				return cur.dist + 1
			}
			if !seen[up] {
				seen[up] = true
				queue = append(queue, qe{up, cur.dist + 1})
			}
		}
	}
	return 0
}

// PatternPR scores a predicted pattern against the ground truth per §7.1:
// precision divides the summed credits by the number of types and
// relationships in the prediction, recall by the number in the ground truth.
func PatternPR(kb *rdf.Store, pred, truth *pattern.Pattern) PR {
	if pred == nil {
		return PR{}
	}
	credit := 0.0
	predCount := 0
	for _, n := range pred.Nodes {
		if n.Type == rdf.NoID {
			continue
		}
		predCount++
		credit += typeScore(kb, n.Type, truth.TypeOf(n.Column))
	}
	for _, e := range pred.Edges {
		predCount++
		var truthProp rdf.ID = rdf.NoID
		if te := truth.EdgeBetween(e.From, e.To); te != nil {
			truthProp = te.Prop
		}
		credit += relScore(kb, e.Prop, truthProp)
	}
	truthCount := 0
	for _, n := range truth.Nodes {
		if n.Type != rdf.NoID {
			truthCount++
		}
	}
	truthCount += len(truth.Edges)

	pr := PR{}
	if predCount > 0 {
		pr.Precision = credit / float64(predCount)
	}
	if truthCount > 0 {
		pr.Recall = credit / float64(truthCount)
	}
	return pr
}

// RepairCounts tallies a repair experiment (§7.4's metrics).
type RepairCounts struct {
	Changes        int // #-all changes proposed
	CorrectChanges int // #-correctly changed values
	Errors         int // #-all injected errors
}

// PR converts counts into precision/recall.
func (c RepairCounts) PR() PR {
	pr := PR{}
	if c.Changes > 0 {
		pr.Precision = float64(c.CorrectChanges) / float64(c.Changes)
	}
	if c.Errors > 0 {
		pr.Recall = float64(c.CorrectChanges) / float64(c.Errors)
	}
	return pr
}
