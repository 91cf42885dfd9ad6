package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"katara"
	"katara/internal/propcheck"
)

// kataradBin is the katarad binary TestMain builds for the katarad-jobs
// runs.
var kataradBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	kataradBin = filepath.Join(dir, "katarad")
	out, err := exec.Command("go", "build", "-o", kataradBin, "katara/cmd/katarad").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build katarad: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runTiny runs one workload at tiny size and returns the parsed result line
// and the whole standard output.
func runTiny(t *testing.T, workload, trace string) (resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "1", "-trace", trace,
		"-size", "tiny", "-root", t.TempDir(), "-katarad", kataradBin}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace %s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	return res, stdout.String()
}

// TestTinyRunsPrintEveryMetric runs each workload at tiny size, untraced and
// traced, and checks that the result line carries every declared metric
// with its unit and that every operation passed its correctness gate.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	for _, w := range []string{"person-batch", "append-chain", "katarad-jobs"} {
		for trace, defs := range map[string][]metricDef{"0": e2eUnits, "1": layerUnits} {
			res, out := runTiny(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, d.Name, m, d.Unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
				if !strings.Contains(out, d.Name) {
					t.Errorf("%s trace %s: summary does not print %s", w, trace, d.Name)
				}
			}
		}
	}
}

// TestTracedLayersSumToClean pins that on person-batch the named layers plus
// katara.unattributed_s sum to the traced clean.
func TestTracedLayersSumToClean(t *testing.T) {
	res, _ := runTiny(t, "person-batch", "1")
	v := func(n string) float64 { return res.Metrics[n].Value }
	sum := v("table.intern_s") + v("discovery.s") + v("validation.s") + v("annotation.s") + v("repair.s") + v("katara.unattributed_s")
	if d := sum - v("trace.clean_s"); d > 1e-9 || d < -1e-9 {
		t.Errorf("layers sum to %v, traced clean is %v", sum, v("trace.clean_s"))
	}
}

// tinyReport cleans the tiny Person table once.
func tinyReport(t *testing.T) *katara.Report {
	t.Helper()
	in := newPersonInput(&config{Size: "tiny"}, 3)
	kb := in.kb()
	rep, err := katara.NewCleaner(kb.Store, katara.TrustingCrowd(), in.options(kb)).Clean(in.spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGatesRejectCorruptedReports corrupts a report and a result document
// and checks that each correctness gate fails, while the intact ones pass.
func TestGatesRejectCorruptedReports(t *testing.T) {
	rep := tinyReport(t)
	batch := digest(propcheck.Canonical(rep))
	chain := digest(propcheck.CanonicalSemantic(rep))
	if err := checkBatch(batch, rep); err != nil {
		t.Fatalf("intact report fails the batch gate: %v", err)
	}
	if err := checkChain(chain, rep); err != nil {
		t.Fatalf("intact report fails the chain gate: %v", err)
	}
	corrupted := false
	for _, reps := range rep.Repairs {
		if len(reps) > 0 && len(reps[0].Changes) > 0 {
			reps[0].Changes[0].To += "-corrupted"
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("the tiny clean proposed no repair to corrupt")
	}
	if checkBatch(batch, rep) == nil {
		t.Error("batch gate passes a report with a corrupted repair")
	}
	if checkChain(chain, rep) == nil {
		t.Error("chain gate passes a report with a corrupted repair")
	}
	doc := []byte(`{"report":{"questions_asked":3}}`)
	if err := checkJob(doc, bytes.Clone(doc)); err != nil {
		t.Errorf("job gate rejects an identical document: %v", err)
	}
	if checkJob(doc, []byte(`{"report":{"questions_asked":4}}`)) == nil {
		t.Error("job gate passes a changed document")
	}
}

// results builds one result per value with seeds 1..n.
func results(workload string, vals []float64, m machine) []*result {
	var out []*result
	for i, v := range vals {
		out = append(out, &result{Workload: workload, Seed: int64(i + 1), Machine: m,
			Metrics: map[string]metricValue{"clean_s": {Value: v, Unit: "s"}}})
	}
	return out
}

func testSpec() benchSpec {
	var s benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"clean_s","unit":"s","better":"lower","bound":0.1}]}`), &s); err != nil {
		panic(err)
	}
	return s
}

func TestCompareVerdicts(t *testing.T) {
	m := machine{CPUModel: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go", Concurrency: 2}
	tight := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{0.6, 1.4, 0.8, 1.2, 0.7, 1.3, 0.9, 1.1, 1.0, 0.65}
	wideChange := []float64{1.3, 0.7, 1.1, 0.8, 1.35, 0.75, 1.0, 1.2, 0.9, 1.05}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"planted regression", tight, scale(tight, 1.3), "worse"},
		{"planted gain", tight, scale(tight, 0.7), "improved"},
		{"same code", tight, scale(tight, 1.005), "unchanged"},
		{"overlapping spreads", wide, wideChange, "unresolved"},
	} {
		rows, err := compare(testSpec(), results("w", tc.parent, m), results("w", tc.change, m))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rows) != 1 || rows[0].Verdict != tc.want {
			t.Errorf("%s: rows %+v, want verdict %s", tc.name, rows, tc.want)
		}
	}
	other := m
	other.NumCPU = 8
	if _, err := compare(testSpec(), results("w", tight, m), results("w", tight, other)); err == nil {
		t.Error("compare accepted results from different machines")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{1, 2}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles of two = %v", got)
	}
}

// TestBenchmarkJSONDeclaresTheMetrics checks BENCHMARK.json against the
// metrics the benchmark reports.
func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, e2eUnits}, {"per_layer", spec.PerLayer, layerUnits}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics declared, %d reported", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, reported %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
