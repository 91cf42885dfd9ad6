package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"katara"
	"katara/internal/jobs"
	"katara/internal/table"
	"katara/internal/workload"
	"katara/internal/world"
)

// runPaperScale is the -paper-scale mode: a self-contained reproduction of
// the paper's headline workload — the 316K-row Person table (§7 Table 1) —
// on one machine, without needing -kb or -in. It generates the synthetic
// world, a DBpedia-shaped KB and the full-size dirty table (10% injected
// errors in the pattern-covered columns, §7.4), runs the end-to-end
// pipeline, and prints an aggregate summary only: at this scale the per-row
// repair listing of the normal mode would be ~30K lines of noise.
//
// -stats, -stats-verbose and -stats-json print the run's telemetry after the
// summary, as in the normal mode. With -provenance or -explain the recorder
// rides along, the run cross-checks that every repaired cell is explainable
// (non-empty evidence chain whose top-ranked candidate replays the applied
// repair), and the journal / per-cell explanation is emitted after the
// summary.
func runPaperScale(params jobs.Params, dedup bool, provPath string, explain *cellRef, st statsFlags, stdout io.Writer) error {
	w := world.New(7, world.Config{
		Persons: 150, Players: 80, Clubs: 16, Universities: 40,
		Films: 40, Books: 40,
	})
	kb := workload.DBpediaLike(w, 7)
	fmt.Fprintf(stdout, "generated world + DBpedia-shaped KB (%d triples)\n", kb.Store.NumTriples())

	spec := workload.PersonTable(w, 308, workload.PaperPersonRows)
	tbl := spec.Table
	injected := table.InjectErrors(tbl, []int{1, 2, 3}, 0.10, rand.New(rand.NewSource(309)))
	in := tbl.Interned()
	fmt.Fprintf(stdout, "table %s: %d rows x %d columns, %d distinct signatures, %d injected errors\n",
		tbl.Name, tbl.NumRows(), tbl.NumCols(), in.NumGroups(), len(injected))

	opts := params.Options()
	opts.FactOracle = workload.WorldOracle{W: w, KB: kb}
	opts.ValidationOracle = workload.SpecOracle{Spec: spec, KB: kb}
	if opts.MaxRows == 0 {
		opts.MaxRows = 500 // discovery sampling cap; patterns saturate long before 316K rows
	}
	opts.Telemetry = st.enabled()
	var rec *katara.ProvenanceRecorder
	if provPath != "" || explain != nil {
		rec = katara.NewProvenance()
		opts.Provenance = rec
	}

	start := time.Now()
	cleaner := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), opts)
	report, err := cleaner.Clean(tbl)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	nKB, nCrowd, nErr, nUnknown := 0, 0, 0, 0
	for _, a := range report.Annotations {
		switch a.Label {
		case katara.ValidatedByKB:
			nKB++
		case katara.ValidatedByCrowd:
			nCrowd++
		case katara.Unknown:
			nUnknown++
		default:
			nErr++
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)

	fmt.Fprintf(stdout, "pattern: %s\n", report.Pattern.Render(kb.Store, tbl.Columns))
	fmt.Fprintf(stdout, "annotations: %d validated by KB, %d assumed correct, %d erroneous",
		nKB, nCrowd, nErr)
	if nUnknown > 0 {
		fmt.Fprintf(stdout, ", %d unknown", nUnknown)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "repairs proposed for %d rows, %d new facts inferred\n",
		len(report.Repairs), len(report.NewFacts))
	fmt.Fprintf(stdout, "crowd questions asked: %d (dedup %v)\n", report.QuestionsAsked, dedup)
	// Sys is the process-lifetime reservation from the OS (world and table
	// generation included), not the clean's own high-water mark.
	fmt.Fprintf(stdout, "wall-clock: %s, runtime Sys: %d MiB\n",
		elapsed.Round(time.Millisecond), m.Sys/(1<<20))
	if err := st.print(report.Timings, stdout); err != nil {
		return err
	}
	if rec != nil {
		verified, err := verifyExplainable(rec, report)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "provenance: every repaired cell explainable (%d cells verified)\n", verified)
		if provPath != "" {
			if err := writeProvenance(rec, provPath, stdout); err != nil {
				return err
			}
		}
		if explain != nil {
			fmt.Fprintln(stdout)
			rec.Explain(explain.row, explain.col).WriteText(stdout)
		}
	}
	return nil
}

// verifyExplainable cross-checks the provenance layer's core guarantee on a
// live run: every cell the pipeline repaired must have a non-empty evidence
// chain, and the chain's top-ranked candidate must replay to the change the
// pipeline actually applied. Returns the number of cells checked.
func verifyExplainable(rec *katara.ProvenanceRecorder, report *katara.Report) (int, error) {
	verified := 0
	for row, reps := range report.Repairs {
		if len(reps) == 0 {
			continue
		}
		for _, ch := range reps[0].Changes {
			e := rec.Explain(row, ch.Col)
			if e.Empty() || e.Repair == nil || len(e.Repair.Candidates) == 0 {
				return verified, fmt.Errorf("provenance: repaired cell (%d,%d) has no evidence chain", row, ch.Col)
			}
			if e.Change == nil || e.Change.From != ch.From || e.Change.To != ch.To {
				return verified, fmt.Errorf("provenance: recorded winner for cell (%d,%d) does not replay the applied repair", row, ch.Col)
			}
			verified++
		}
	}
	return verified, nil
}
