package main

import (
	"bytes"
	"errors"
	"fmt"

	"katara"
	"katara/internal/propcheck"
)

// The correctness gates. Every operation a workload measures passes one of
// them; a mismatch counts as a failed operation.

// checkBatch passes a person-batch clean whose canonical report
// (propcheck.Canonical: pattern, annotations, facts, repairs, questions)
// digests to want, the serial unsharded reference clean's digest.
func checkBatch(want string, rep *katara.Report) error {
	if got := digest(propcheck.Canonical(rep)); got != want {
		return fmt.Errorf("canonical report %s differs from the serial reference %s", got, want)
	}
	return nil
}

// checkChain passes an append chain whose final cumulative report equals,
// under propcheck.CanonicalSemantic, one batch Clean of the merged table
// (digest want).
func checkChain(want string, rep *katara.Report) error {
	if got := digest(propcheck.CanonicalSemantic(rep)); got != want {
		return fmt.Errorf("cumulative report %s differs from the batch clean of the merged table %s", got, want)
	}
	return nil
}

// checkJob passes a katarad result document byte-identical to the first
// submission of the same table.
func checkJob(ref, doc []byte) error {
	if !bytes.Equal(ref, doc) {
		return errors.New("result differs from the first submission of the same table")
	}
	return nil
}
