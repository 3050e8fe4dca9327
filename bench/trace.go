package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into the engine. Spans of one
// operation (a churn cycle, a phase) share Trace; Parent is the span that
// caused this one (0 for a root).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Counters is a snapshot of the engine's public read-outs at a phase
// boundary, so ratios can be taken over exactly one phase.
type Counters struct {
	At   string             `json:"at"`
	TS   int64              `json:"ts_ns"`
	Vals map[string]float64 `json:"vals"`
}

// Recorder keeps the traced run's spans and counter snapshots in memory and
// writes them out once, at exit. A nil *Recorder records nothing, which is
// how the untraced run pays nothing for it.
type Recorder struct {
	mu       sync.Mutex
	next     uint64
	spans    []Span
	counters []Counters
}

// NewID reserves a span ID, for a parent whose children are recorded before
// it ends.
func (r *Recorder) NewID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// Add records a finished span; id 0 allocates a fresh ID. It returns the ID.
func (r *Recorder) Add(id, parent, trace uint64, name string, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.next++
		id = r.next
	}
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// Snapshot records a counter set under a boundary name.
func (r *Recorder) Snapshot(at string, vals map[string]float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = append(r.counters, Counters{At: at, TS: time.Now().UnixNano(), Vals: vals})
}

// WriteFile writes the spans and counter snapshots as one JSON document.
func (r *Recorder) WriteFile(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Spans    []Span     `json:"spans"`
		Counters []Counters `json:"counters"`
	}{workload, seed, r.spans, r.counters})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return nil
}
