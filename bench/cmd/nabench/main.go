// Command nabench runs one workload of the repository's benchmark and
// prints its metrics as the last line of standard output:
//
//	nabench --workload soak6_passthrough --seed 1 --seconds 20 --trace 0
//
// or compares two files of appended runs against the bounds in
// BENCHMARK.json:
//
//	nabench -compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"netalytics/bench"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are built from")
		seconds = flag.Float64("seconds", 20, "measured time of the run")
		trace   = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics, 0 the end-to-end ones")
		smoke   = flag.Bool("smoke", false, "tiny phases and pools: exercises every code path and gate, times nothing")
		out     = flag.String("out", "", "span file of a traced run (default bench/out/<workload>-seed<seed>.trace.json)")
		appendF = flag.String("append", "", "append the run as one JSON line to this file")
		commit  = flag.String("commit", "unknown", "commit name recorded by -append")
		compare = flag.Bool("compare", false, "compare two -append files: nabench -compare a.jsonl b.jsonl")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: nabench -compare a.jsonl b.jsonl")
		}
		// run.sh starts the binary at the root of the checkout, where the
		// benchmark's definition is.
		worse, err := bench.Compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	w := bench.WorkloadByName(*name)
	if w == nil {
		fatal(2, "unknown workload %q", *name)
	}
	if *seconds < 1 && !*smoke {
		fatal(2, "-seconds must be at least 1")
	}
	if *smoke {
		*seconds = 1
	}
	// A wedged Session.Stop or Engine.Close must not outlive the run: the
	// driver allows 180 s, a run plans for its measured time plus set-up.
	planned := time.Duration(*seconds*float64(time.Second)) + 40*time.Second
	if limit := 85 * time.Second; planned > limit {
		planned = limit
	}
	watchdog := time.AfterFunc(2*planned, func() {
		fmt.Fprintf(os.Stderr, "nabench: still running after %v, giving up\n", 2*planned)
		os.Exit(3)
	})
	defer watchdog.Stop()

	opts := bench.Options{
		Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Smoke: *smoke,
		Out: *out, Log: os.Stderr,
	}
	if opts.Out == "" {
		opts.Out = fmt.Sprintf("bench/out/%s-seed%d.trace.json", w.Name, *seed)
	}
	res, err := bench.Run(opts)
	if err != nil {
		fatal(1, "%v", err)
	}
	if *appendF != "" {
		if err := bench.Append(*appendF, w.Name, *seed, *commit, opts.Trace, res); err != nil {
			fatal(1, "%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(4)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nabench: "+format+"\n", args...)
	os.Exit(code)
}
