package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareGlobs compares result files of a parent and a change, pairing
// the i-th parent file with the i-th change file in name order, and
// prints a verdict for each workload × end-to-end metric.
func compareGlobs(parentGlob, changeGlob string, w io.Writer) error {
	parents, err := loadResults(parentGlob)
	if err != nil {
		return err
	}
	changes, err := loadResults(changeGlob)
	if err != nil {
		return err
	}
	if len(parents) != len(changes) {
		return fmt.Errorf("compare needs pairs: %d parent files, %d change files", len(parents), len(changes))
	}
	fmt.Fprintf(w, "%-16s %-20s %-8s %28s %28s %6s  %s\n", "workload", "metric", "unit",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range workloadNames {
		for _, m := range endToEnd {
			var p, c []float64
			for i := range parents {
				pv, pok := medianOf(parents[i], wl, m.Name)
				cv, cok := medianOf(changes[i], wl, m.Name)
				if pok && cok {
					p, c = append(p, pv), append(c, cv)
				}
			}
			if len(p) == 0 {
				continue
			}
			v, wins := verdict(m, p, c)
			pq1, pmed, pq3 := quartiles(p)
			cq1, cmed, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-16s %-20s %-8s %12.6g [%6.4g, %6.4g] %12.6g [%6.4g, %6.4g] %3d/%-2d  %s\n",
				wl, m.Name, m.Unit, pmed, pq1, pq3, cmed, cq1, cq3, wins, len(p), v)
		}
	}
	return nil
}

func loadResults(glob string) ([]resultFile, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	sort.Strings(paths)
	out := make([]resultFile, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &out[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

func medianOf(r resultFile, workload, metric string) (float64, bool) {
	for _, wr := range r.Workloads {
		if wr.Workload == workload && !wr.Traced {
			s, ok := wr.Metrics[metric]
			return s.Median, ok
		}
	}
	return 0, false
}

// verdict applies the benchmark's rule to one metric's paired runs
// (parent[i] ran beside change[i]) and returns the verdict and how many
// pairs the change won:
//
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - better: at least 10 pairs, the change wins at least 9 in 10 (ties
//     count for neither), and the medians differ by more than the
//     parent's interquartile range;
//   - unresolved: the parent's own spread is wider than the bound, and
//     not every change run reads better than every parent run;
//   - unchanged: otherwise.
func verdict(m metricDef, parent, change []float64) (string, int) {
	wins := 0
	for i := range parent {
		if improves(m, change[i], parent[i]) {
			wins++
		}
	}
	pq1, pmed, pq3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	gain := cmed - pmed // positive when the change is better
	if m.Better == "lower" {
		gain = -gain
	}
	n := len(parent)
	switch {
	case -gain > m.Bound*math.Abs(pmed):
		return "worse", wins
	case n >= 10 && wins*10 >= 9*n && gain > pq3-pq1:
		return "better", wins
	case pq3-pq1 > m.Bound*math.Abs(pmed) && !allImprove(m, parent, change):
		return "unresolved", wins
	}
	return "unchanged", wins
}

func improves(m metricDef, change, parent float64) bool {
	if m.Better == "lower" {
		return change < parent
	}
	return change > parent
}

// allImprove reports whether every change run reads better than every
// parent run.
func allImprove(m metricDef, parent, change []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if !improves(m, c, p) {
				return false
			}
		}
	}
	return true
}
