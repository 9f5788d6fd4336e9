// Command skybench is the end-to-end benchmark of CrowdSky: it runs whole
// crowd-skyline sessions through the public crowdsky.Run, checks every
// result, and reports the costs a deployment pays, in crowd currency
// (questions, rounds, dollars, accuracy) and in machine currency (time
// between rounds, session wall time, HTTP round latency, peak memory).
// A traced run attributes that time to the layers below by timing calls
// into their public functions from outside.
//
// Run it from the repository root through run.sh, which builds it from
// source:
//
//	bash cmd/skybench/run.sh -seed 1 -out r.json           # timed run, every workload
//	bash cmd/skybench/run.sh -seed 1 -trace 1 -trace-out spans.jsonl
//	bash cmd/skybench/run.sh -compare r1.json r2.json
//	bash cmd/skybench/run.sh --workload serve-sl-ant-1k --seed 3 --seconds 30 --trace 0
//
// Without -workload every workload runs in a child process of its own, so
// its peak memory is its own. Each metric prints as
// "workload metric value unit samples"; with -workload the last line is a
// JSON object with the metrics BENCHMARK.json declares. The exit status
// is 1 if any session fails its correctness gates.
//
// All load is closed-loop: one requester, each round waiting for the
// previous one; the serve workload adds one simulated worker, so no run
// needs more than two connections or two busy threads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "input seed: session i of a workload runs on the dataset generated from seed+i")
		seconds  = flag.Int("seconds", 0, "keep starting timed sessions until this many seconds have passed (default: each workload's fixed session count)")
		trace    = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics; 0 runs timed and reports the end-to-end metrics")
		traceOut = flag.String("trace-out", "", "append a traced run's spans to this JSONL file")
		out      = flag.String("out", "", "write the result file (records, sessions, environment) here")
		quick    = flag.Bool("quick", false, "run every workload at n <= 300 with one session")
		cmp      = flag.Bool("compare", false, "compare the two result files given as arguments")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick}
	switch {
	case *cmp:
		os.Exit(runCompare(flag.Args()))
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "skybench: -trace takes 0 or 1")
		os.Exit(2)
	case *name != "":
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skybench:", err)
			os.Exit(2)
		}
		os.Exit(runOne(w, o, *out, *traceOut))
	}
	os.Exit(runAll(o, *out, *traceOut))
}

// runOne runs one workload in this process, prints its records and the
// final JSON line, and writes its result file and spans when asked.
func runOne(w workload, o options, out, traceOut string) int {
	start := time.Now()
	oc := runWorkload(w, o)
	wall := time.Since(start)
	for _, r := range oc.records {
		printRecord(os.Stdout, r)
	}
	for _, e := range oc.errors {
		fmt.Fprintf(os.Stderr, "skybench: %s: %s\n", w.name, e)
	}
	if traceOut != "" {
		if err := appendSpans(traceOut, oc.spans); err != nil {
			fmt.Fprintln(os.Stderr, "skybench:", err)
			return 1
		}
	}
	if out != "" {
		rep := newReport(o)
		rep.Workloads = []workloadRun{{Name: w.name, WallS: wall.Seconds(), Attempted: oc.attempted, Failed: oc.failed, Errors: oc.errors}}
		rep.Records = oc.records
		if err := writeReport(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "skybench:", err)
			return 1
		}
	}
	line, err := json.Marshal(resultLine(oc, o.traced))
	if err != nil {
		fmt.Fprintln(os.Stderr, "skybench: encoding the result line:", err)
		return 1
	}
	fmt.Println(string(line))
	if oc.failed > 0 {
		return 1
	}
	return 0
}

// result is the final JSON line of a one-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine holds the metrics BENCHMARK.json declares for the run's
// mode: end to end for timed runs, per layer for traced ones.
func resultLine(oc *outcome, traced bool) result {
	res := result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]resultValue{}}
	for _, r := range oc.records {
		if m, _ := lookup(r.Metric); m.listed() && m.layer == traced {
			res.Metrics[r.Metric] = resultValue{r.Value, r.Unit}
		}
	}
	return res
}

// newReport starts a result file for a run with options o.
func newReport(o options) report {
	return report{Seed: o.seed, Trace: o.traced, Quick: o.quick, Seconds: o.seconds, Env: currentEnv()}
}

// runAll runs every workload, each in a child process, prints their
// records as they finish, and writes the combined result file.
func runAll(o options, out, traceOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		return 1
	}
	if traceOut != "" {
		if err := os.WriteFile(traceOut, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "skybench:", err)
			return 1
		}
	}
	part, err := os.CreateTemp("", "skybench-*.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		return 1
	}
	part.Close()
	defer os.Remove(part.Name())

	rep := newReport(o)
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-out", part.Name()}
		if o.traced {
			args = append(args, "-trace", "1")
		}
		if o.quick {
			args = append(args, "-quick")
		}
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut)
		}
		os.Remove(part.Name()) // a child that dies must not pass off the last one's result
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
		runErr := cmd.Run()
		child, err := readReport(part.Name())
		if err != nil || len(child.Workloads) != 1 {
			fmt.Fprintf(os.Stderr, "skybench: %s produced no result (%v, %v)\n", w.name, runErr, err)
			code = 1
			continue
		}
		if runErr != nil {
			code = 1
		}
		for _, r := range child.Records {
			printRecord(os.Stdout, r)
		}
		rep.Workloads = append(rep.Workloads, child.Workloads...)
		rep.Records = append(rep.Records, child.Records...)
	}
	for _, wr := range rep.Workloads {
		fmt.Printf("# %s: %d sessions, %d failed, %.1f s\n", wr.Name, wr.Attempted, wr.Failed, wr.WallS)
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "skybench:", err)
			return 1
		}
	}
	return code
}

// runCompare compares two result files.
func runCompare(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "skybench: -compare takes two result files")
		return 2
	}
	first, err := readReport(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		return 2
	}
	second, err := readReport(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		return 2
	}
	if n := compare(os.Stdout, first, second); n > 0 {
		fmt.Printf("%d metric(s) outside their bound\n", n)
		return 1
	}
	return 0
}

// appendSpans appends spans to path, one JSON object per line.
func appendSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
