// Package oracle is the runtime counterpart of the skylint static checks:
// a differential invariant oracle for crowd-enabled skyline results.
//
// The static analyzers prove structural properties (determinism, locking,
// nil-safety); this package checks the semantic contract itself — a
// *core.Result claimed by any algorithm is verified against an
// independent brute-force reimplementation of full-attribute dominance
// (Definition 2), so a bug shared between package skyline and package
// core cannot vouch for itself. Differential runs every pruning
// combination of every algorithm under a perfect crowd and requires them
// all to agree with the sort-based baseline and the ground-truth oracle
// (Theorem: P1-P3 and both parallel schemes preserve the exact skyline,
// Sections 3-4 of the paper).
package oracle

import (
	"fmt"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
)

// dominates is an independent reimplementation of s ≺A t over the full
// attribute set (known columns plus latent crowd values, smaller
// preferred). It deliberately does not call package skyline: the oracle
// must not share code with the implementation it judges.
func dominates(d *dataset.Dataset, s, t int) bool {
	strict := false
	for j := 0; j < d.KnownDims(); j++ {
		sv, tv := d.Known(s, j), d.Known(t, j)
		if sv > tv {
			return false
		}
		if sv < tv {
			strict = true
		}
	}
	for j := 0; j < d.CrowdDims(); j++ {
		sv, tv := d.Latent(s, j), d.Latent(t, j)
		if sv > tv {
			return false
		}
		if sv < tv {
			strict = true
		}
	}
	return strict
}

// TrueSkyline brute-forces the ground-truth skyline over all attributes,
// independently of skyline.OracleSkyline.
func TrueSkyline(d *dataset.Dataset) []int {
	var sky []int
	n := d.N()
	for t := 0; t < n; t++ {
		dominated := false
		for s := 0; s < n && !dominated; s++ {
			dominated = s != t && dominates(d, s, t)
		}
		if !dominated {
			sky = append(sky, t)
		}
	}
	return sky
}

// CheckSkyline verifies one algorithm result against the dataset's latent
// ground truth and the platform's question accounting. truth is the
// expected skyline (pass TrueSkyline(d), or a precomputed reference);
// stats is the Snapshot of the platform the run used. The checks:
//
//   - well-formedness: indices in range, strictly ascending (sorted and
//     duplicate-free);
//   - soundness: no reported tuple is dominated over the full attribute
//     set (brute force against the independent dominance test);
//   - completeness: every tuple of truth is reported — valid whenever the
//     crowd was perfect and the run was not budget-truncated;
//   - accounting: the result's question/round/judgment counters agree
//     with the platform's own books, and judgments cover questions.
//
// A nil error means every invariant holds.
func CheckSkyline(res *core.Result, d *dataset.Dataset, truth []int, stats crowd.Snapshot) error {
	if res == nil {
		return fmt.Errorf("oracle: nil result")
	}
	n := d.N()
	for i, t := range res.Skyline {
		if t < 0 || t >= n {
			return fmt.Errorf("oracle: skyline[%d] = %d out of range [0,%d)", i, t, n)
		}
		if i > 0 && res.Skyline[i-1] >= t {
			return fmt.Errorf("oracle: skyline not strictly ascending at %d: %d then %d",
				i, res.Skyline[i-1], t)
		}
	}
	for _, t := range res.Skyline {
		for s := 0; s < n; s++ {
			if s != t && dominates(d, s, t) {
				return fmt.Errorf("oracle: unsound: reported tuple %d is dominated by %d", t, s)
			}
		}
	}
	if !res.Truncated {
		reported := make(map[int]bool, len(res.Skyline))
		for _, t := range res.Skyline {
			reported[t] = true
		}
		for _, t := range truth {
			if !reported[t] {
				return fmt.Errorf("oracle: incomplete: true skyline tuple %d missing from result", t)
			}
		}
	}
	if res.Questions != stats.Questions {
		return fmt.Errorf("oracle: result claims %d questions, platform booked %d",
			res.Questions, stats.Questions)
	}
	if res.Rounds != stats.Rounds {
		return fmt.Errorf("oracle: result claims %d rounds, platform booked %d",
			res.Rounds, stats.Rounds)
	}
	if res.WorkerAnswers != stats.WorkerAnswers {
		return fmt.Errorf("oracle: result claims %d worker answers, platform booked %d",
			res.WorkerAnswers, stats.WorkerAnswers)
	}
	if res.WorkerAnswers < res.Questions {
		return fmt.Errorf("oracle: %d worker answers cannot cover %d questions (every question needs ≥1)",
			res.WorkerAnswers, res.Questions)
	}
	perRoundQuestions := 0
	for _, r := range stats.PerRound {
		perRoundQuestions += r.Questions
	}
	if len(stats.PerRound) != stats.Rounds || perRoundQuestions != stats.Questions {
		return fmt.Errorf("oracle: per-round breakdown (%d rounds, %d questions) disagrees with totals (%d, %d)",
			len(stats.PerRound), perRoundQuestions, stats.Rounds, stats.Questions)
	}
	return nil
}

// scheme is one algorithm under differential test.
type scheme struct {
	name string
	run  func(*dataset.Dataset, crowd.Platform, core.Options) *core.Result
}

func schemes() []scheme {
	return []scheme{
		{"CrowdSky", core.CrowdSky},
		{"ParallelDSet", core.ParallelDSet},
		{"ParallelSL", core.ParallelSL},
	}
}

// PruningCombos enumerates all 2³ settings of P1/P2/P3.
func PruningCombos() []core.Options {
	var out []core.Options
	for bits := 0; bits < 8; bits++ {
		out = append(out, core.Options{
			P1: bits&1 != 0,
			P2: bits&2 != 0,
			P3: bits&4 != 0,
		})
	}
	return out
}

// Differential runs every pruning combination of every scheme on d under
// a perfect crowd and checks each result with CheckSkyline against the
// independent brute-force truth; it then requires all results — and the
// sort-based tournament baseline — to produce the identical skyline.
// This is the paper's exactness claim made executable: the prunings and
// parallelizations change cost and latency, never the answer.
func Differential(d *dataset.Dataset) error {
	truth := TrueSkyline(d)
	// One dominance index serves all 24 runs; every scheme adopts it via
	// Options.Index instead of recomputing the quadratic machine part.
	// Its bitmap-backed oracle must also agree with the brute-force truth.
	ix := skyline.NewIndex(d)
	if got := ix.OracleSkyline(); !equalInts(got, truth) {
		return fmt.Errorf("index oracle: skyline %v differs from brute-force truth %v", got, truth)
	}
	for _, sc := range schemes() {
		for _, opts := range PruningCombos() {
			opts.Index = ix
			pf := crowd.NewPerfect(crowd.DatasetTruth{Data: d})
			res := sc.run(d, pf, opts)
			if err := CheckSkyline(res, d, truth, pf.Stats().Snapshot()); err != nil {
				return fmt.Errorf("%s{P1:%v P2:%v P3:%v}: %w", sc.name, opts.P1, opts.P2, opts.P3, err)
			}
			if !equalInts(res.Skyline, truth) {
				return fmt.Errorf("%s{P1:%v P2:%v P3:%v}: skyline %v differs from truth %v",
					sc.name, opts.P1, opts.P2, opts.P3, res.Skyline, truth)
			}
		}
	}
	pf := crowd.NewPerfect(crowd.DatasetTruth{Data: d})
	base := core.Baseline(d, pf, core.TournamentSort, nil)
	if err := CheckSkyline(base, d, truth, pf.Stats().Snapshot()); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if !equalInts(base.Skyline, truth) {
		return fmt.Errorf("baseline: skyline %v differs from truth %v", base.Skyline, truth)
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
