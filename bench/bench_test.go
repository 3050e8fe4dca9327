package bench

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"netalytics/internal/topology"
)

// TestSmoke runs every workload end to end and traced in smoke mode: tiny
// phases, every code path and gate, no assertion on any timing. It keeps the
// benchmark compiling and passing its own gates as internal/ APIs move, and
// checks that each run prints exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	spec, err := ReadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := Run(Options{
				Workload: w, Seed: 7, Seconds: 1, Smoke: true, Trace: traced,
				Out: filepath.Join(t.TempDir(), "trace.json"), Log: testLog{t},
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: gates failed", w.Name, traced)
			}
			if res.Attempted == 0 {
				t.Errorf("%s traced=%v: no operation attempted", w.Name, traced)
			}
			var got, declared []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				declared = append(declared, m.Name)
				if res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, res.Metrics[m.Name].Unit, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(declared)
			if len(got) != len(declared) {
				t.Errorf("%s traced=%v: printed %v, BENCHMARK.json declares %v", w.Name, traced, got, declared)
			}
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) { l.t.Log(string(p)); return len(p), nil }

// TestPlansAreSeeded checks that a seed fixes a workload's inputs and that
// the top-k pool has the key spread its workload is about.
func TestPlansAreSeeded(t *testing.T) {
	hosts := topology.MustNew(4).Hosts()
	for _, w := range Workloads {
		a := w.build(hosts, rand.New(rand.NewSource(3)), true)
		b := w.build(hosts, rand.New(rand.NewSource(3)), true)
		c := w.build(hosts, rand.New(rand.NewSource(4)), true)
		if len(a.frames) != len(b.frames) {
			t.Fatalf("%s: same seed, %d and %d frames", w.Name, len(a.frames), len(b.frames))
		}
		same := true
		for i := range a.frames {
			if string(a.frames[i].raw) != string(b.frames[i].raw) {
				t.Fatalf("%s: same seed, frame %d differs", w.Name, i)
			}
			same = same && string(a.frames[i].raw) == string(c.frames[i].raw)
		}
		if same {
			t.Errorf("%s: seeds 3 and 4 build the same frames", w.Name)
		}
	}
	p := WorkloadByName("http_topk_zipf").build(hosts, rand.New(rand.NewSource(1)), false)
	keys := make(map[string]bool)
	for i := range p.frames {
		keys[p.frames[i].key] = true
	}
	t.Logf("http_topk_zipf: %d frames, %d distinct URLs", len(p.frames), len(keys))
	if len(keys) < 60000 {
		t.Errorf("http_topk_zipf pool has %d distinct URLs, want at least 60000", len(keys))
	}
}
