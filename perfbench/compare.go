package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare is `perfbench compare`: it reads the untraced result files of
// a parent and a change (runs made in alternated pairs, one pair per seed)
// and prints one row per workload and end-to-end metric.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parentDir := fs.String("parent", "", "directory of the parent's result files")
	changeDir := fs.String("change", "", "directory of the change's result files")
	root := fs.String("root", "..", "repository root (holds BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentDir == "" || *changeDir == "" {
		fmt.Fprintln(stderr, "perfbench compare: -parent and -change are required")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	parent, err := loadResults(*parentDir)
	if err == nil {
		var change []*result
		change, err = loadResults(*changeDir)
		if err == nil {
			var rows []compareRow
			rows, err = compare(spec, parent, change)
			if err == nil {
				printRows(stdout, rows)
				return 0
			}
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return 2
}

// loadResults reads every untraced result file in dir.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-e2e-seed*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// compareRow is one workload × metric comparison.
type compareRow struct {
	Workload, Metric string
	Parent, Change   [3]float64 // first quartile, median, third quartile
	Pairs            int
	WinFrac          float64
	Verdict          string
}

// compare pairs parent and change runs by workload and seed and judges each
// end-to-end metric. It refuses results measured on different machines.
func compare(spec benchSpec, parent, change []*result) ([]compareRow, error) {
	all := append(append([]*result(nil), parent...), change...)
	for _, r := range all[1:] {
		if !r.Machine.sameHost(all[0].Machine) {
			return nil, fmt.Errorf("results from different machines: %+v vs %+v", all[0].Machine, r.Machine)
		}
	}
	type key struct {
		workload string
		seed     int64
	}
	bySeed := map[key]*result{}
	workloads := map[string]bool{}
	for _, r := range parent {
		bySeed[key{r.Workload, r.Seed}] = r
		workloads[r.Workload] = true
	}
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	var rows []compareRow
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			var pv, cv []float64
			wins := 0
			for _, c := range change {
				p := bySeed[key{c.Workload, c.Seed}]
				if c.Workload != w || p == nil {
					continue
				}
				a, b := p.Metrics[m.Name].Value, c.Metrics[m.Name].Value
				pv, cv = append(pv, a), append(cv, b)
				if better(m.Better, b, a) {
					wins++
				}
			}
			if len(pv) == 0 {
				continue
			}
			row := compareRow{Workload: w, Metric: m.Name, Parent: quartiles(pv), Change: quartiles(cv),
				Pairs: len(pv), WinFrac: float64(wins) / float64(len(pv))}
			row.Verdict = verdict(m.Better, m.Bound, pv, cv, row)
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, errors.New("no parent and change runs share a workload and seed")
	}
	return rows, nil
}

// better reports whether a is better than b for a metric whose better
// direction is dir ("lower" or "higher").
func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// verdict applies the pairwise rules: improved when the change wins at
// least nine tenths of the pairs and the medians differ by more than the
// parent's quartile spread; unresolved when either side's spread exceeds
// the bound, unless every change run beats every parent run; worse when the
// change's median is worse than the parent's by more than the bound;
// unchanged otherwise.
func verdict(dir string, bound float64, pv, cv []float64, row compareRow) string {
	pMed, cMed := row.Parent[1], row.Change[1]
	spread := row.Parent[2] - row.Parent[0]
	gain := pMed - cMed
	if dir == "higher" {
		gain = -gain
	}
	if row.WinFrac >= 0.9 && gain > spread {
		return "improved"
	}
	relSpread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	if relSpread(row.Parent) > bound || relSpread(row.Change) > bound {
		allBetter := true
		for _, c := range cv {
			for _, p := range pv {
				allBetter = allBetter && better(dir, c, p)
			}
		}
		if allBetter {
			return "unchanged"
		}
		return "unresolved"
	}
	if -gain > bound*math.Abs(pMed) {
		return "worse"
	}
	return "unchanged"
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func printRows(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-14s %-16s %5s %32s %32s %6s  %s\n", "workload", "metric", "pairs",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-16s %5d %32s %32s %5.0f%%  %s\n", r.Workload, r.Metric, r.Pairs,
			fmtQ(r.Parent), fmtQ(r.Change), 100*r.WinFrac, r.Verdict)
	}
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
