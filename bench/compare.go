package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end-to-end metrics only
}

func loadSpec(path string) (map[string]specMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]specMetric{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// loadResults reads result files into values per "workload metric".
func loadResults(paths []string) (map[[2]string][]float64, error) {
	out := map[[2]string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a ghostbench result file", p)
		}
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out, nil
}

// compareRuns implements -compare A... -- B...: for every workload and
// metric it prints each side's median and quartiles over its result
// files and the change of B's median from A's, signed so that positive
// is worse. A change worse than the metric's bound is a regression. A
// metric whose spread on either side exceeds its bound is unresolved —
// the runs cannot tell a change that size from noise — unless every B
// run beats every A run. It reports whether any metric regressed.
func compareRuns(args []string, specPath string, w io.Writer) (bool, error) {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		return false, errors.New("usage: -compare A.json... -- B.json...")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadResults(args[:sep])
	if err != nil {
		return false, err
	}
	b, err := loadResults(args[sep+1:])
	if err != nil {
		return false, err
	}
	var keys [][2]string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(x, y [2]string) int {
		if c := strings.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return strings.Compare(x[1], y[1])
	})

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	regressed := false
	for _, k := range keys {
		m, declared := spec[k[1]]
		av, bv := a[k], b[k]
		if !declared || len(av) == 0 || len(bv) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\t\tnot comparable\n", k[0], k[1], m.Unit, side(av), side(bv))
			continue
		}
		_, ma, _ := quartiles(av)
		_, mb, _ := quartiles(bv)
		worse := (mb - ma) / ma
		if m.Better == "higher" {
			worse = -worse
		}
		verdict, bound := "", ""
		if m.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", 100**m.Bound)
			verdict = judgeChange(av, bv, worse, *m.Bound, m.Better == "higher")
			regressed = regressed || verdict == "REGRESSION"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", k[0], k[1], m.Unit, side(av), side(bv), 100*worse, bound, verdict)
	}
	return regressed, tw.Flush()
}

// judgeChange classifies a change of relative size worse (positive is
// worse) against its bound.
func judgeChange(a, b []float64, worse, bound float64, higherBetter bool) string {
	if spread(a) > bound || spread(b) > bound {
		if dominates(b, a, higherBetter) {
			return "better (every run)"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "REGRESSION"
	case -worse > bound:
		return "better"
	}
	return "within bound"
}

// dominates reports whether every run in x beats every run in y.
func dominates(x, y []float64, higherBetter bool) bool {
	if higherBetter {
		return slices.Min(x) > slices.Max(y)
	}
	return slices.Max(x) < slices.Min(y)
}

func side(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}
