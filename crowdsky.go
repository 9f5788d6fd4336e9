// Package crowdsky is a from-scratch Go implementation of CrowdSky
// (Lee, Lee, Kim: "CrowdSky: Skyline Computation with Crowdsourcing",
// EDBT 2016): skyline queries over relations whose crowd attributes have no
// stored values, with the missing pair-wise preferences obtained from a
// crowdsourcing platform.
//
// The package optimizes the paper's three key factors:
//
//   - monetary cost — dominating-set question generation with the three
//     pruning methods P1/P2/P3 minimizes the number of questions;
//   - latency — two parallelization strategies (by dominating sets and by
//     skyline layers) pack independent questions into shared rounds;
//   - accuracy — static or dynamic majority voting assigns workers per
//     question, weighting important questions more heavily.
//
// # Quick start
//
//	d := crowdsky.Movies() // box office & year known, rating crowdsourced
//	platform := crowdsky.NewSimulatedCrowd(d, crowdsky.CrowdConfig{
//	    Reliability: 0.9,
//	    Seed:        1,
//	})
//	res, err := crowdsky.Run(d, platform, crowdsky.RunConfig{
//	    Parallelism: crowdsky.BySkylineLayers,
//	    Voting:      crowdsky.StaticVoting(5),
//	})
//
// res.Skyline lists the crowdsourced skyline tuples; res.Questions,
// res.Rounds and res.Cost report the budget spent.
//
// Real crowds plug in through the Platform interface; the package ships a
// perfect oracle, a configurable noisy simulator and an interactive stdin
// platform.
package crowdsky

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/metrics"
	"crowdsky/internal/skyline"
	"crowdsky/internal/telemetry"
	"crowdsky/internal/voting"
)

// Dataset is a relation with known attributes (machine-readable, smaller
// preferred) and crowd attributes (values missing; only a crowd can compare
// them). See NewDataset, Generate and the embedded datasets.
type Dataset = dataset.Dataset

// GenerateConfig describes a synthetic dataset (the paper's Table 4 grid).
type GenerateConfig = dataset.GenerateConfig

// Distribution selects the synthetic data distribution.
type Distribution = dataset.Distribution

// Synthetic data distributions of the skyline benchmark.
const (
	Independent    = dataset.Independent
	AntiCorrelated = dataset.AntiCorrelated
	Correlated     = dataset.Correlated
)

// Platform is a crowdsourcing marketplace: one Ask call is one round of
// parallel questions.
type Platform = crowd.Platform

// Result reports a crowd-enabled skyline run: the skyline tuple indices and
// the question/round/worker/cost accounting.
type Result = core.Result

// Policy decides the number of workers per question from the question's
// importance.
type Policy = voting.Policy

// Tracer receives a run's span tree as span_start/span_end events: the
// run, its crowd rounds, the index build and per-tuple question
// generation, with P1/P2/P3 removals, vote escalations and budget
// truncation as span attributes. See NewJSONLTracer for the file-backed
// implementation and docs/OBSERVABILITY.md for the attributes.
type Tracer = telemetry.Tracer

// TraceEvent is one trace event: one half of a span.
type TraceEvent = telemetry.Event

// NewJSONLTracer returns a Tracer writing one JSON event per line to w
// (the `crowdsky -trace out.jsonl` format). Writes are unbuffered; write
// errors are sticky and never abort the run — check them afterwards with
// TracerErr.
func NewJSONLTracer(w io.Writer) Tracer { return telemetry.NewJSONL(w) }

// TracerErr returns the first write error of a NewJSONLTracer tracer, and
// nil for any other tracer.
func TracerErr(t Tracer) error {
	if j, ok := t.(*telemetry.JSONL); ok {
		return j.Err()
	}
	return nil
}

// NewDataset builds a dataset from per-tuple known and latent
// crowd-attribute rows; all attributes use MIN semantics (smaller
// preferred). The latent values are only consulted by simulated crowds.
func NewDataset(known, latent [][]float64) (*Dataset, error) {
	return dataset.New(known, latent)
}

// Generate builds a synthetic benchmark dataset.
func Generate(cfg GenerateConfig, rng *rand.Rand) (*Dataset, error) {
	return dataset.Generate(cfg, rng)
}

// ReadCSV parses a dataset from CSV; see dataset.CSVOptions for the column
// mapping ("-col" flips a larger-is-better column to MIN semantics).
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	return dataset.ReadCSV(r, opts)
}

// CSVOptions maps CSV columns onto known/crowd attributes.
type CSVOptions = dataset.CSVOptions

// Toy returns the paper's 12-tuple running-example dataset (Figure 1).
func Toy() *Dataset { return dataset.Toy() }

// Rectangles returns the paper's Q1 dataset: 50 rectangles, area
// crowdsourced.
func Rectangles() *Dataset { return dataset.Rectangles() }

// Movies returns the paper's Q2 dataset: 50 movies, rating crowdsourced.
func Movies() *Dataset { return dataset.Movies() }

// MLBPitchers returns the paper's Q3 dataset: 40 pitchers, value
// crowdsourced.
func MLBPitchers() *Dataset { return dataset.MLBPitchers() }

// Parallelism selects how questions are scheduled into rounds.
type Parallelism int

const (
	// Serial asks one pair-wise comparison per round (Algorithm 1). It
	// minimizes monetary cost but has the highest latency.
	Serial Parallelism = iota
	// ByDominatingSets partitions tuples by dominating-set size and runs
	// disjoint pipelines in shared rounds (Section 4.1). Same questions as
	// Serial, about an order of magnitude fewer rounds.
	ByDominatingSets
	// BySkylineLayers starts a tuple's pipeline as soon as its direct
	// dominators are complete (Algorithm 2, Section 4.2). Fewest rounds;
	// may ask a few percent more questions.
	BySkylineLayers
)

// String names the strategy.
func (p Parallelism) String() string {
	switch p {
	case Serial:
		return "serial"
	case ByDominatingSets:
		return "parallel-dset"
	case BySkylineLayers:
		return "parallel-sl"
	default:
		return fmt.Sprintf("Parallelism(%d)", int(p))
	}
}

// Pruning toggles the paper's three question-pruning methods. The zero
// value disables all three (pure dominating-set questioning); use
// AllPruning for the full CrowdSky configuration.
type Pruning struct {
	P1 bool // early pruning of complete non-skyline tuples (Section 3.2)
	P2 bool // transitive reduction of dominating sets in AC (Section 3.3)
	P3 bool // probing dominating sets (Section 3.4)
}

// AllPruning enables P1+P2+P3, the full CrowdSky configuration.
func AllPruning() Pruning { return Pruning{P1: true, P2: true, P3: true} }

// RunConfig configures Run.
type RunConfig struct {
	// Pruning selects the enabled pruning methods. The zero value means
	// full pruning (P1+P2+P3) unless DisableDefaultPruning is set.
	Pruning Pruning
	// DisableDefaultPruning makes a zero Pruning mean "no pruning" instead
	// of the full stack. Intended for ablation studies.
	DisableDefaultPruning bool
	// Parallelism selects the round scheduling strategy.
	Parallelism Parallelism
	// Voting assigns workers per question; nil means one worker per
	// question (appropriate for trusted or simulated-perfect crowds).
	Voting Policy
	// RoundRobinAC asks the crowd attributes of a pair one at a time and
	// skips the rest once the pair's outcome is decided (Section 6.1's
	// round-robin strategy). Only meaningful with several crowd
	// attributes.
	RoundRobinAC bool
	// Budget, when positive, caps the number of crowd questions (the
	// fixed-budget setting of Lofi et al. [12]). An exhausted budget sets
	// Result.Truncated and reads out optimistically: every tuple not yet
	// proven dominated is reported.
	Budget int
	// Tracer, when non-nil, receives the run's span tree. Nil disables
	// tracing at no measurable cost.
	Tracer Tracer
	// Context, when non-nil, is the run's base context: cancelling it
	// aborts context-aware platforms (the HTTP marketplace client) between
	// polls, and trace spans started under it parent the run's span tree.
	Context context.Context
}

// StaticVoting returns the static majority-voting policy: omega workers for
// every question (omega should be odd; the paper uses 5).
func StaticVoting(omega int) Policy { return voting.Static{Omega: omega} }

// DynamicVoting returns the paper's tuned dynamic majority-voting policy
// (Section 6.1): the first 30% of the run's questions get omega+2 workers
// and the last 30% get omega−2, at the same expected total budget as
// StaticVoting(omega). Early answers matter most because the preference
// tree reuses them transitively across many later pruning decisions. In
// our evaluation this trades a little precision for a solid recall gain;
// see SmartVoting for the variant that improves both.
func DynamicVoting(_ *Dataset, omega int) Policy {
	return voting.NewAnnealed(omega)
}

// SmartVoting returns the context-aware dynamic policy (an extension
// beyond the paper): early questions and top-importance questions
// (freq(u,v) in the top 5% for d) get omega+2 workers, while checks that
// still have backup dominators pending get omega−2. It beats static voting
// on both precision and recall at roughly 10-20% more worker budget.
func SmartVoting(d *Dataset, omega int) Policy {
	return core.SmartVoting(skyline.NewIndex(d), omega)
}

// Run computes the crowd-enabled skyline of d, asking pf for every missing
// preference. It implements the paper's CrowdSky algorithm with the
// configured pruning, parallelism and voting.
func Run(d *Dataset, pf Platform, cfg RunConfig) (*Result, error) {
	if d == nil {
		return nil, fmt.Errorf("crowdsky: nil dataset")
	}
	if pf == nil {
		return nil, fmt.Errorf("crowdsky: nil platform")
	}
	pruning := cfg.Pruning
	if pruning == (Pruning{}) && !cfg.DisableDefaultPruning {
		pruning = AllPruning()
	}
	opts := core.Options{
		P1: pruning.P1, P2: pruning.P2, P3: pruning.P3,
		Voting:       cfg.Voting,
		RoundRobinAC: cfg.RoundRobinAC,
		MaxQuestions: cfg.Budget,
		Tracer:       cfg.Tracer,
		Context:      cfg.Context,
	}
	switch cfg.Parallelism {
	case Serial:
		return core.CrowdSky(d, pf, opts), nil
	case ByDominatingSets:
		return core.ParallelDSet(d, pf, opts), nil
	case BySkylineLayers:
		return core.ParallelSL(d, pf, opts), nil
	default:
		return nil, fmt.Errorf("crowdsky: unknown parallelism %v", cfg.Parallelism)
	}
}

// RunBaseline computes the skyline with the paper's sort-based baseline
// (crowd-powered tournament sort of every crowd attribute). It asks far
// more questions than Run; provided for comparison studies.
func RunBaseline(d *Dataset, pf Platform, vote Policy) (*Result, error) {
	if d == nil || pf == nil {
		return nil, fmt.Errorf("crowdsky: nil dataset or platform")
	}
	return core.Baseline(d, pf, core.TournamentSort, vote), nil
}

// CrowdConfig configures NewSimulatedCrowd.
type CrowdConfig struct {
	// Reliability is each worker's probability of answering correctly
	// (the paper's p; its experiments use 0.8). 1 gives a perfect crowd.
	Reliability float64
	// PoolSize bounds the worker pool; 0 means unbounded identical
	// workers.
	PoolSize int
	// SpammerFraction is the fraction of pool workers answering randomly.
	SpammerFraction float64
	// Epsilon widens the latent-value band considered "equally preferred".
	Epsilon float64
	// Screen enables agreement-based worker screening (the programmatic
	// AMT "Masters" filter): workers who persistently disagree with the
	// majority stop receiving questions.
	Screen bool
	// Seed drives all simulated randomness.
	Seed int64
}

// NewSimulatedCrowd builds a noisy simulated platform answering from d's
// latent crowd-attribute values with majority voting over the workers the
// voting policy assigns.
func NewSimulatedCrowd(d *Dataset, cfg CrowdConfig) Platform {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool, err := crowd.NewPool(crowd.PoolConfig{
		Size:            cfg.PoolSize,
		Reliability:     cfg.Reliability,
		SpammerFraction: cfg.SpammerFraction,
	}, rng)
	if err != nil {
		// Invalid probabilities; fall back to a perfect crowd rather than
		// panic, surfacing the issue through deterministic answers.
		return crowd.NewPerfect(crowd.DatasetTruth{Data: d, Epsilon: cfg.Epsilon})
	}
	pf := crowd.NewSimulated(crowd.DatasetTruth{Data: d, Epsilon: cfg.Epsilon}, pool, rng)
	if cfg.Screen {
		pf.Quality = crowd.NewQuality()
	}
	return pf
}

// NewPerfectCrowd builds a platform whose answers always match d's latent
// ground truth — the setting under which the paper analyzes cost and
// latency.
func NewPerfectCrowd(d *Dataset) Platform {
	return crowd.NewPerfect(crowd.DatasetTruth{Data: d})
}

// NewInteractiveCrowd builds a platform that asks a human through in/out
// (used by cmd/crowdsky): answer 1, 2 or = per question.
func NewInteractiveCrowd(d *Dataset, in io.Reader, out io.Writer) Platform {
	return &crowd.Interactive{
		In:       in,
		Out:      out,
		Describe: func(t int) string { return d.Name(t) },
		AttrName: func(a int) string { return d.CrowdAttrName(a) },
	}
}

// Oracle returns the ground-truth skyline over all attributes, computed
// from the latent values. Only meaningful for datasets with latent values
// (synthetic or embedded); use it to grade accuracy.
func Oracle(d *Dataset) []int { return skyline.OracleSkyline(d) }

// KnownSkyline returns the skyline over the known attributes only — the
// tuples that are in the skyline regardless of any crowd answer.
func KnownSkyline(d *Dataset) []int { return skyline.KnownSkyline(d) }

// PrecisionRecall grades a computed skyline against a reference following
// the paper's Section 6 methodology: only tuples newly retrieved by
// crowdsourcing (outside the known-attribute skyline) are compared, falling
// back to whole-skyline comparison when that delta is empty.
func PrecisionRecall(got, want, knownSkyline []int) (precision, recall float64) {
	return metrics.PrecisionRecall(got, want, knownSkyline)
}
