package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompare checks the verdicts, and that a file lacking a workload, a
// metric or enough runs cannot pass for one without regressions.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	err := os.WriteFile(spec, []byte(`{
		"workloads": [{"name": "w1"}, {"name": "w2"}],
		"end_to_end": [
			{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
			{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1}
		]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// write appends runs of both workloads: one per rate value, the latency a
	// hundredth of it.
	write := func(name string, workloads []string, failed uint64, rates ...float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			for i, r := range rates {
				res := Result{Correct: true, Attempted: 1000, Failed: failed, Metrics: map[string]Metric{
					"rate": {r, "1/s"}, "lat": {r / 100, "ms"},
				}}
				if err := Append(path, w, int64(i), "test", false, res); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	both := []string{"w1", "w2"}
	base := write("base.jsonl", both, 0, 100, 101, 102)

	for _, c := range []struct {
		name      string
		file      string
		wantWorse bool
		wantErr   bool
		wantRow   string // fields of one row the table must contain
	}{
		{"same", write("same.jsonl", both, 0, 100, 101, 102), false, false, "w2 lat ms 3 * within"},
		{"slower", write("slower.jsonl", both, 0, 80, 81, 82), true, false, "w1 rate 1/s 3 * worse"},
		{"noisy", write("noisy.jsonl", both, 0, 60, 100, 140), false, false, "w1 rate 1/s 3 * unresolved"},
		{"lossy", write("lossy.jsonl", both, 1, 100, 101, 102), true, false, "w1 loss_ratio fraction 3 * worse"},
		{"workload missing", write("missing.jsonl", []string{"w1"}, 0, 100, 101, 102), false, true, "w2 rate 1/s 3 * 0 * unresolved"},
		{"two runs", write("two.jsonl", both, 0, 100, 101), false, true, "w1 lat ms 3 * 2 * unresolved"},
	} {
		var out bytes.Buffer
		worse, err := Compare(&out, spec, base, c.file)
		if worse != c.wantWorse || (err != nil) != c.wantErr {
			t.Errorf("%s: worse=%v err=%v, want worse=%v err=%v\n%s", c.name, worse, err, c.wantWorse, c.wantErr, out.String())
		}
		if !hasRow(out.String(), c.wantRow) {
			t.Errorf("%s: no row like %q in\n%s", c.name, c.wantRow, out.String())
		}
	}

	// A run of a workload the definition does not name is refused.
	if _, err := Compare(new(bytes.Buffer), spec, base, write("other.jsonl", []string{"w3"}, 0, 1, 2, 3)); err == nil {
		t.Error("runs of an unknown workload were accepted")
	}
}

// hasRow reports whether a line of table has want's fields in order, "*"
// standing for any run of fields.
func hasRow(table, want string) bool {
lines:
	for _, line := range strings.Split(table, "\n") {
		fields := strings.Fields(line)
		for _, w := range strings.Fields(want) {
			if w == "*" {
				continue
			}
			i := 0
			for i < len(fields) && fields[i] != w {
				i++
			}
			if i == len(fields) {
				continue lines
			}
			fields = fields[i+1:]
		}
		return true
	}
	return false
}
