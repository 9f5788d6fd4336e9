// Command bench is the perf-trajectory harness for the machine part: it
// times the dominance index build, its derivations and one serving round
// across dataset cardinalities and writes the measurements as JSON, so
// any two PRs can be compared by diffing their checked-in BENCH_*.json
// files.
//
//	go run ./cmd/bench -out BENCH_PRn.json            # full sweep to a file
//	go run ./cmd/bench -quick -out bench-smoke.json   # CI smoke, n=1000 only
//	go run ./cmd/bench -sizes 1000,10000              # custom sizes, stdout
//	go run ./cmd/bench -quick -out s.json -compare BENCH_PR14.json
//
// -compare prints a Markdown table against a baseline report (only ops
// measured in both at the same n), flagging ns/op regressions above 10%.
// It is a soft gate: regressions are reported, never a non-zero exit —
// CI appends the table to the job summary.
//
// Each op is measured with testing.Benchmark (standard ns/op, B/op,
// allocs/op semantics). The *_index ops include the index build in every
// iteration. See docs/PERFORMANCE.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowdsky/internal/core"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
)

// result is one (op, n) measurement.
type result struct {
	Op          string  `json:"op"`
	N           int     `json:"n"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// report is the file schema. Environment fields make cross-machine diffs
// honest: only compare files with matching cpu/go fields.
type report struct {
	Schema    string   `json:"schema"`
	Generated string   `json:"generated"`
	Go        string   `json:"go"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPUs      int      `json:"cpus"`
	Sizes     []int    `json:"sizes"`
	Results   []result `json:"results"`
}

// op is one machine-part construction under measurement.
type op struct {
	name  string
	bench func(d *dataset.Dataset) func(b *testing.B)
}

func ops() []op {
	return []op{
		// index_build is pinned to one worker so the row measures the
		// serial kernel across reports regardless of the host's core
		// count; index_build_parallel (below, per -cores) is the
		// multi-core row, and serial÷parallel at equal n is the speedup.
		{"index_build", func(d *dataset.Dataset) func(*testing.B) {
			return func(b *testing.B) {
				defer skyline.SetMaxWorkers(skyline.SetMaxWorkers(1))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					skyline.NewIndex(d)
				}
			}
		}},
		// steady_state_round is one serving round of the session layer
		// (answer folding, completeness checks, request regeneration) via
		// the same core.RoundBench harness the zero-alloc gate holds at
		// 0 allocs/op.
		{"steady_state_round", func(d *dataset.Dataset) func(*testing.B) {
			return func(b *testing.B) {
				rb := core.NewRoundBench(d, core.AllPruning(), 64)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rb.Round()
				}
			}
		}},
		{"dominating_sets_index", func(d *dataset.Dataset) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					skyline.NewIndex(d).DominatingSets()
				}
			}
		}},
		{"immediate_dominators_index", func(d *dataset.Dataset) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					skyline.NewIndex(d).ImmediateDominators()
				}
			}
		}},
		{"oracle_skyline_index", func(d *dataset.Dataset) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					skyline.NewIndex(d).OracleSkyline()
				}
			}
		}},
	}
}

// parallelOps returns one index_build_parallel op per requested worker
// count. The default (cores = [0]) is a single row at all cores, named
// plainly so reports from different machines keep comparable keys; an
// explicit -cores list names each row with its count, which is how the
// speedup curve in docs/PERFORMANCE.md is produced.
func parallelOps(cores []int) []op {
	var out []op
	for _, c := range cores {
		c := c
		name := "index_build_parallel"
		if c > 0 {
			name = fmt.Sprintf("index_build_parallel@%d", c)
		}
		out = append(out, op{name, func(d *dataset.Dataset) func(*testing.B) {
			return func(b *testing.B) {
				defer skyline.SetMaxWorkers(skyline.SetMaxWorkers(c))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					skyline.NewIndex(d)
				}
			}
		}})
	}
	return out
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseCores parses the -cores flag: empty means one all-cores row.
func parseCores(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{0}, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c <= 0 {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		out = append(out, c)
	}
	return out, nil
}

func main() {
	var (
		outPath   = flag.String("out", "-", "output file, or - for stdout")
		sizesCS   = flag.String("sizes", "1000,5000,10000,20000", "comma-separated dataset cardinalities")
		quick     = flag.Bool("quick", false, "smoke mode: n=1000 only (overrides -sizes)")
		seed      = flag.Int64("seed", 1, "dataset generator seed")
		baseCmp   = flag.String("compare", "", "baseline BENCH_*.json: print a Markdown ns/op comparison and flag >10% regressions (never fails the run)")
		coresCS   = flag.String("cores", "", "comma-separated worker counts for index_build_parallel rows (e.g. 1,2,4,8); empty = one row at all cores")
		chaos     = flag.Bool("chaos", false, "run the fault-injection resilience session instead of benchmarks; exits non-zero on any invariant violation")
		chaosSeed = flag.Int64("chaos-seed", 1234, "fault plan seed for -chaos (same seed, same fault schedule)")
		chaosDir  = flag.String("chaos-dir", "chaos-artifacts", "directory for -chaos failure artifacts (journals, server trace)")
	)
	flag.Parse()

	if *chaos {
		os.Exit(runChaos(*chaosSeed, *chaosDir, os.Stdout))
	}

	sizes, err := parseSizes(*sizesCS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *quick {
		sizes = []int{1000}
	}
	cores, err := parseCores(*coresCS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	allOps := append(ops(), parallelOps(cores)...)

	rep := report{
		Schema:    "crowdsky-bench/1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.GOMAXPROCS(0),
		Sizes:     sizes,
	}
	for _, n := range sizes {
		// The machine-part workload of the paper's evaluation: 4 known
		// attributes, 2 crowd attributes, independent distribution.
		d := dataset.MustGenerate(dataset.GenerateConfig{
			N: n, KnownDims: 4, CrowdDims: 2, Distribution: dataset.Independent,
		}, rand.New(rand.NewSource(*seed)))
		for _, o := range allOps {
			start := time.Now()
			r := testing.Benchmark(o.bench(d))
			rep.Results = append(rep.Results, result{
				Op:          o.name,
				N:           n,
				Iterations:  r.N,
				NsPerOp:     float64(r.NsPerOp()),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			})
			fmt.Fprintf(os.Stderr, "%-28s n=%-6d %12d ns/op %12d B/op %8d allocs/op (%s)\n",
				o.name, n, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp(),
				time.Since(start).Round(time.Millisecond))
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *outPath == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d results)\n", *outPath, len(rep.Results))
	}

	if *baseCmp != "" {
		data, err := os.ReadFile(*baseCmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: compare:", err)
			os.Exit(1)
		}
		var base report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintln(os.Stderr, "bench: compare:", err)
			os.Exit(1)
		}
		// Soft gate by design (see package comment): the exit code stays 0
		// even with regressions, because CI machines are not the baseline
		// machine and a hard gate on cross-machine ns/op would flake.
		compareReports(os.Stdout, *baseCmp, base, rep, 0.10)
	}
}

// compareReports writes a Markdown comparison of cur against base to w:
// one row per (op, n) measured in both, with the ns/op delta, flagging
// regressions above threshold. Returns the number of flagged rows.
func compareReports(w io.Writer, baseName string, base, cur report, threshold float64) int {
	type key struct {
		op string
		n  int
	}
	baseline := make(map[key]result, len(base.Results))
	for _, r := range base.Results {
		baseline[key{r.Op, r.N}] = r
	}
	fmt.Fprintf(w, "### Bench comparison vs %s\n\n", baseName)
	if base.Go != cur.Go || base.GOARCH != cur.GOARCH || base.CPUs != cur.CPUs {
		fmt.Fprintf(w, "> environment differs from baseline (%s/%s/%d CPUs vs %s/%s/%d CPUs) — deltas are indicative only\n\n",
			cur.Go, cur.GOARCH, cur.CPUs, base.Go, base.GOARCH, base.CPUs)
	}
	fmt.Fprintln(w, "| op | n | baseline ns/op | current ns/op | delta | B/op | allocs/op |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|")
	regressions, compared := 0, 0
	for _, r := range cur.Results {
		b, ok := baseline[key{r.Op, r.N}]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		compared++
		delta := (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		mark := ""
		if delta > threshold {
			mark = " ⚠️"
		}
		// Memory columns show baseline→current so an allocation creeping
		// onto a zero-alloc op is visible at a glance; a regression from
		// 0 allocs/op is flagged like a time regression (machine-stable,
		// unlike ns/op, so the mark is trustworthy cross-machine).
		allocMark := ""
		if b.AllocsPerOp == 0 && r.AllocsPerOp > 0 {
			allocMark = " ⚠️"
		}
		if mark != "" || allocMark != "" {
			regressions++ // one row, one regression, however many marks
		}
		fmt.Fprintf(w, "| %s | %d | %.0f | %.0f | %+.1f%%%s | %s | %s%s |\n",
			r.Op, r.N, b.NsPerOp, r.NsPerOp, 100*delta, mark,
			deltaCount(b.BytesPerOp, r.BytesPerOp), deltaCount(b.AllocsPerOp, r.AllocsPerOp), allocMark)
	}
	switch {
	case compared == 0:
		fmt.Fprintln(w, "\nno overlapping (op, n) measurements — nothing compared")
	case regressions > 0:
		fmt.Fprintf(w, "\n**%d of %d ops regressed more than %.0f%% ns/op or started allocating** (soft gate — not failing the job)\n", regressions, compared, 100*threshold)
	default:
		fmt.Fprintf(w, "\nno ns/op regressions above %.0f%% across %d compared ops\n", 100*threshold, compared)
	}
	return regressions
}

// deltaCount renders a memory column: the current value alone when
// unchanged, "base→cur" when it moved.
func deltaCount(base, cur int64) string {
	if base == cur {
		return fmt.Sprintf("%d", cur)
	}
	return fmt.Sprintf("%d→%d", base, cur)
}
