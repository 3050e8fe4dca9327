package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// runLine is one appended run.
type runLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Commit   string `json:"commit"`
	Traced   bool   `json:"traced"`
	Result
}

// Append adds the run to a file of runs, one JSON object per line.
func Append(path, workload string, seed int64, commit string, traced bool, res Result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	line, err := json.Marshal(runLine{workload, seed, commit, traced, res})
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("append to %s: %w", path, err)
	}
	return nil
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Spec is the part of BENCHMARK.json the benchmark itself reads.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// lossRatio is the name readRuns files each run's failed ÷ attempted under.
const lossRatio = "loss_ratio"

// readRuns groups a file's untraced, correct runs by workload and metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l runLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if l.Traced {
			continue
		}
		if !l.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s (seed %d) failed its gates", path, n, l.Workload, l.Seed)
		}
		if out[l.Workload] == nil {
			out[l.Workload] = make(map[string][]float64)
		}
		for name, m := range l.Metrics {
			out[l.Workload][name] = append(out[l.Workload][name], m.Value)
		}
		out[l.Workload][lossRatio] = append(out[l.Workload][lossRatio], ratio(float64(l.Failed), float64(l.Attempted)))
	}
	return out, sc.Err()
}

// minRuns is the fewest runs a side needs for a verdict: the quartiles of
// fewer say nothing about spread.
const minRuns = 3

// Compare prints, for every workload and end-to-end metric of the benchmark's
// definition, each side's run count, median and quartiles and a verdict
// against the metric's bound: "within" when b's median is no worse than a's
// by more than the bound, "worse" when it is, and "unresolved" when the runs
// cannot tell — either side's quartile distance exceeds the bound, or a side
// has fewer than minRuns runs of the pair. loss_ratio (failed ÷ attempted) is
// a tenth row per workload, held to an absolute rule: b's median may not
// exceed a's.
//
// worse reports whether any pair came out worse. A pair with too few runs on
// a side is an error, returned after the table is printed, so that a file
// that lacks a workload or a metric cannot pass for one without regressions.
func Compare(w io.Writer, specPath, aPath, bPath string) (worse bool, err error) {
	spec, err := ReadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return false, err
	}
	known := make(map[string]bool)
	for _, wl := range spec.Workloads {
		known[wl.Name] = true
	}
	for _, runs := range []map[string]map[string][]float64{a, b} {
		for name := range runs {
			if !known[name] {
				return false, fmt.Errorf("runs of %q, which %s does not name", name, specPath)
			}
		}
	}

	var short []string
	fmt.Fprintf(w, "%-20s %-26s %-9s %3s %12s %12s %12s   %3s %12s %12s %12s  %7s %6s  %s\n",
		"workload", "metric", "unit", "a.n", "a.q1", "a.median", "a.q3", "b.n", "b.q1", "b.median", "b.q3", "change", "bound", "verdict")
	rows := append(append([]metricSpec(nil), spec.EndToEnd...), metricSpec{Name: lossRatio, Unit: "fraction", Better: "lower"})
	for _, wl := range spec.Workloads {
		name := wl.Name
		for _, m := range rows {
			av, bv := a[name][m.Name], b[name][m.Name]
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			// change > 0 means b is worse.
			change := ratio(b2-a2, a2)
			if m.Better == "higher" {
				change = -change
			}
			verdict := "within"
			switch {
			case len(av) < minRuns || len(bv) < minRuns:
				verdict = "unresolved"
				short = append(short, name+"/"+m.Name)
			case m.Name == lossRatio:
				if b2 > a2 {
					verdict = "worse"
				}
			case ratio(a3-a1, a2) > m.Bound || ratio(b3-b1, b2) > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
			}
			worse = worse || verdict == "worse"
			bound := fmt.Sprintf("%.0f%%", m.Bound*100)
			if m.Name == lossRatio {
				bound = "abs"
			}
			fmt.Fprintf(w, "%-20s %-26s %-9s %3d %12.6g %12.6g %12.6g   %3d %12.6g %12.6g %12.6g  %+6.1f%% %6s  %s\n",
				name, m.Name, m.Unit, len(av), a1, a2, a3, len(bv), b1, b2, b3, change*100, bound, verdict)
		}
	}
	if len(short) > 0 {
		return worse, fmt.Errorf("fewer than %d runs on a side of: %s", minRuns, strings.Join(short, ", "))
	}
	return worse, nil
}
