package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// environment describes the machine a result file was measured on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

// currentEnv describes this machine.
func currentEnv() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
	}
}

// cpuModel returns the first model name in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workloadRun summarises one workload of a result file.
type workloadRun struct {
	Name      string   `json:"name"`
	WallS     float64  `json:"wall_s"`
	Attempted int      `json:"sessions_attempted"`
	Failed    int      `json:"sessions_failed"`
	Errors    []string `json:"errors,omitempty"`
}

// report is a result file.
type report struct {
	Seed      int64         `json:"seed"`
	Trace     bool          `json:"trace"`
	Quick     bool          `json:"quick,omitempty"`
	Seconds   int           `json:"seconds,omitempty"`
	Env       environment   `json:"env"`
	Workloads []workloadRun `json:"workloads"`
	Records   []record      `json:"records"`
}

// writeReport writes rep to path as indented JSON.
func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result file: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readReport reads a result file.
func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("decoding %s: %w", path, err)
	}
	return rep, nil
}

// printRecord prints r as "workload metric value unit samples".
func printRecord(w io.Writer, r record) {
	fmt.Fprintf(w, "%s %s %s %s %d\n", r.Workload, r.Metric, strconv.FormatFloat(r.Value, 'g', -1, 64), r.Unit, r.Samples)
}

// compare prints, for every (workload, metric) pair in either result
// file, both values and whether the second stays within the metric's
// bound of the first. It returns how many pairs do not.
func compare(w io.Writer, first, second report) int {
	if first.Env != second.Env {
		fmt.Fprintf(w, "note: measured on different machines: %+v vs %+v\n", first.Env, second.Env)
	}
	type key struct{ workload, metric string }
	later := make(map[key]record, len(second.Records))
	for _, r := range second.Records {
		later[key{r.Workload, r.Metric}] = r
	}
	fmt.Fprintf(w, "%-18s %-40s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "change", "bound", "verdict")
	outside := 0
	for _, a := range first.Records {
		k := key{a.Workload, a.Metric}
		b, ok := later[k]
		delete(later, k)
		m, known := lookup(a.Metric)
		v, fine := "missing from the second file", false
		switch {
		case !known:
			v = "unknown metric"
		case ok:
			v, fine = verdict(m, a, b, first.Seconds == 0 && second.Seconds == 0)
		}
		if !fine {
			outside++
		}
		bound := "-"
		if m.bound > 0 {
			bound = strconv.FormatFloat(m.bound, 'f', 2, 64)
		}
		fmt.Fprintf(w, "%-18s %-40s %14.6g %14.6g %7.1f%% %6s  %s\n", a.Workload, a.Metric, a.Value, b.Value, 100*change(a.Value, b.Value), bound, v)
	}
	for _, b := range second.Records {
		if _, ok := later[key{b.Workload, b.Metric}]; ok {
			outside++
			fmt.Fprintf(w, "%-18s %-40s %14s %14.6g %8s %6s  missing from the first file\n", b.Workload, b.Metric, "-", b.Value, "", "")
		}
	}
	return outside
}

// change returns (b-a)/|a|.
func change(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

// verdict judges the change from a to b against m and reports whether
// it is acceptable. Exact counts must repeat when both runs had a fixed
// session count (with -seconds the count depends on the machine). A
// metric whose estimated run-to-run spread exceeds its bound cannot be
// judged from two runs, so it is unresolved rather than unchanged.
func verdict(m metric, a, b record, fixedSessions bool) (string, bool) {
	switch {
	case m.exact && fixedSessions:
		if a.Value == b.Value {
			return "same", true
		}
		return "differs", false
	case m.bound == 0:
		return "not judged", true
	}
	worse := change(a.Value, b.Value)
	if m.better == "higher" {
		worse = -worse
	}
	switch {
	case max(a.Spread, b.Spread) > m.bound:
		return "unresolved", true
	case worse > m.bound:
		return "worse", false
	case worse < -m.bound:
		return "better", true
	}
	return "within bound", true
}
