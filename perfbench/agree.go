package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultLine is one line of a results file: a run's workload, seed and
// the JSON object it printed last. perfbench/prove.sh writes these.
type resultLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// readResults loads a JSONL results file into workload → metric → values.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l resultLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[l.Workload] == nil {
			out[l.Workload] = make(map[string][]float64)
		}
		for name, v := range l.Result.Metrics {
			out[l.Workload][name] = append(out[l.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// agreeFiles checks two sets of untraced runs of the same code against
// every end-to-end bound, printing one row per workload and metric. It
// reports whether every row passed.
func agreeFiles(w io.Writer, spec *benchmarkSpec, path1, path2 string) (bool, error) {
	set1, err := readResults(path1)
	if err != nil {
		return false, err
	}
	set2, err := readResults(path2)
	if err != nil {
		return false, err
	}
	var names []string
	for wl := range set1 {
		names = append(names, wl)
	}
	sort.Strings(names)
	allOK := true
	fmt.Fprintf(w, "%-8s %-16s %8s %8s %12s %12s %8s %6s\n", "workload", "metric", "spread1", "spread2", "median1", "median2", "drift", "bound")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			v := agree(m, wl, set1[wl][m.Name], set2[wl][m.Name])
			status := "ok"
			if !v.OK {
				status, allOK = "FAIL "+v.Why, false
			}
			fmt.Fprintf(w, "%-8s %-16s %8.4f %8.4f %12.4f %12.4f %8.4f %6.2f %s\n",
				wl, m.Name, v.Spread1, v.Spread2, v.Median1, v.Median2, v.Drift, v.Bound, status)
		}
	}
	return allOK, nil
}
