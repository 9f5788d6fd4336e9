package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
	"crowdsky/internal/voting"
)

var updateGolden = flag.Bool("golden.update", false, "print the request-stream golden table instead of checking it")

// streamHasher hashes every round a platform is asked: the round's size,
// then each request's pair, attribute and worker count, in order.
type streamHasher struct {
	crowd.Platform
	h hash.Hash
}

func (s *streamHasher) Ask(reqs []crowd.Request) []crowd.Answer {
	fmt.Fprintf(s.h, "round %d\n", len(reqs))
	for _, r := range reqs {
		fmt.Fprintf(s.h, "%d %d %d %d\n", r.Q.A, r.Q.B, r.Q.Attr, r.Workers)
	}
	return s.Platform.Ask(reqs)
}

// hashResult appends a run's outcome to the stream.
func hashResult(h hash.Hash, res *Result) {
	fmt.Fprintf(h, "result %v q=%d r=%d w=%d c=%v x=%d trunc=%v\n",
		res.Skyline, res.Questions, res.Rounds, res.WorkerAnswers, res.Cost, res.Contradictions, res.Truncated)
}

// goldenDatasets are the request-stream inputs: IND and ANT at two seeds
// (one and two crowd attributes), and a dataset of small-integer values
// whose exact ties in AK make the degenerate-case preprocessing ask, and
// whose ties in AC leave twins.
func goldenDatasets() []struct {
	name string
	d    *dataset.Dataset
} {
	rng := rand.New(rand.NewSource(9))
	grid := func(n, dims, levels int) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dims)
			for j := range rows[i] {
				rows[i][j] = float64(rng.Intn(levels))
			}
		}
		return rows
	}
	return []struct {
		name string
		d    *dataset.Dataset
	}{
		{"ind-1", randomDataset(1, 50, 2, 1, dataset.Independent)},
		{"ind-2", randomDataset(2, 50, 2, 2, dataset.Independent)},
		{"ant-1", randomDataset(1, 50, 2, 1, dataset.AntiCorrelated)},
		{"ant-2", randomDataset(2, 50, 2, 2, dataset.AntiCorrelated)},
		{"ties", dataset.MustNew(grid(50, 2, 4), grid(50, 2, 3))},
	}
}

// goldenOptions are the pruning configurations; round-robin runs only on
// datasets with two crowd attributes, where it changes the questions.
var goldenOptions = []struct {
	name string
	opts Options
	rr   bool
}{
	{"none", Options{}, false},
	{"p1", Options{P1: true}, false},
	{"p1p2", Options{P1: true, P2: true}, false},
	{"p1p2p3", AllPruning(), false},
	{"rr", Options{P1: true, P2: true, P3: true, RoundRobinAC: true}, true},
}

// goldenCrowds are the platforms and voting policies: a perfect crowd with
// the default single worker, and a seeded p = 0.8 crowd under static,
// annealed and smart five-worker voting. Smart is calibrated per dataset.
var goldenCrowds = []struct {
	name   string
	policy func(*dataset.Dataset) voting.Policy
	noisy  bool
}{
	{"perfect", func(*dataset.Dataset) voting.Policy { return nil }, false},
	{"static5", func(*dataset.Dataset) voting.Policy { return voting.Static{Omega: 5} }, true},
	{"annealed5", func(*dataset.Dataset) voting.Policy { return voting.NewAnnealed(5) }, true},
	{"smart5", func(d *dataset.Dataset) voting.Policy { return SmartVoting(skyline.NewIndex(d), 5) }, true},
}

func goldenPlatform(d *dataset.Dataset, noisy bool) crowd.Platform {
	if !noisy {
		return perfect(d)
	}
	rng := rand.New(rand.NewSource(17))
	pool, err := crowd.NewPool(crowd.PoolConfig{Reliability: 0.8}, rng)
	if err != nil {
		panic(err)
	}
	return crowd.NewSimulated(crowd.DatasetTruth{Data: d}, pool, rng)
}

// goldenStreams holds one hash per algorithm, dataset and crowd over the
// request streams and results of every pruning configuration (and, for
// the serial algorithms, the budgets 1, 5 and half the unlimited count).
// Regenerate with: go test ./internal/core -run TestRequestStreamGolden -golden.update
var goldenStreams = map[string]string{
	"crowdsky/ant-1/annealed5":      "7cc864a6b955a1b9",
	"crowdsky/ant-1/perfect":        "cde8dfe1b5a57ef8",
	"crowdsky/ant-1/smart5":         "8a0ea5c06755d31f",
	"crowdsky/ant-1/static5":        "a70124f9db7fef3e",
	"crowdsky/ant-2/annealed5":      "56ecf5346f028f39",
	"crowdsky/ant-2/perfect":        "344bd99110cb8c46",
	"crowdsky/ant-2/smart5":         "f565d8ceab5f4bff",
	"crowdsky/ant-2/static5":        "a32d7e5ae94b1413",
	"crowdsky/ind-1/annealed5":      "fb380ba2519a77d6",
	"crowdsky/ind-1/perfect":        "6bb728629d973364",
	"crowdsky/ind-1/smart5":         "1182e4e4b8be0e41",
	"crowdsky/ind-1/static5":        "3a1d0b48355c6887",
	"crowdsky/ind-2/annealed5":      "dbf7c0f3fe4e0829",
	"crowdsky/ind-2/perfect":        "6553102e6aaade79",
	"crowdsky/ind-2/smart5":         "dcc8b880e5a51709",
	"crowdsky/ind-2/static5":        "bb2892567c008ce8",
	"crowdsky/ties/annealed5":       "379cda3ac071c778",
	"crowdsky/ties/perfect":         "9b689800c4c714f8",
	"crowdsky/ties/smart5":          "a0518442c2b4008c",
	"crowdsky/ties/static5":         "0ddec2fca447f681",
	"dset/ant-1/annealed5":          "5ef9f945a32d5383",
	"dset/ant-1/perfect":            "eee3cde41c6fec9b",
	"dset/ant-1/smart5":             "a4fd5269e51919d1",
	"dset/ant-1/static5":            "6c29a197df94b668",
	"dset/ant-2/annealed5":          "c97439dcb5cd2cb6",
	"dset/ant-2/perfect":            "cb6e398896864858",
	"dset/ant-2/smart5":             "00ea0dcc543f6d57",
	"dset/ant-2/static5":            "af951789fd65f91e",
	"dset/ind-1/annealed5":          "94343a2d597d5ef5",
	"dset/ind-1/perfect":            "73a8dfbd4920a2b5",
	"dset/ind-1/smart5":             "a363f0790ea3dd00",
	"dset/ind-1/static5":            "40b9d605ab036a21",
	"dset/ind-2/annealed5":          "9f6c680167b2a79d",
	"dset/ind-2/perfect":            "3dd92538ed5e2af3",
	"dset/ind-2/smart5":             "1346b9fb39cf5daf",
	"dset/ind-2/static5":            "627d52f920bd4682",
	"dset/ties/annealed5":           "7c97ea1b5db20bc6",
	"dset/ties/perfect":             "5d0aefd362ff2cb2",
	"dset/ties/smart5":              "ac37913aedd4468c",
	"dset/ties/static5":             "1ee57c3d55944da1",
	"probabilistic/ant-1/annealed5": "ac81755bb0bf4500",
	"probabilistic/ant-1/perfect":   "d290bba07e6871ce",
	"probabilistic/ant-1/smart5":    "144260a5f7486243",
	"probabilistic/ant-1/static5":   "4ea7b57e527386aa",
	"probabilistic/ant-2/annealed5": "c6c7f665cd97e654",
	"probabilistic/ant-2/perfect":   "fe83f0a919f4e597",
	"probabilistic/ant-2/smart5":    "ebb6a9b411634534",
	"probabilistic/ant-2/static5":   "416a76f78129f8b2",
	"probabilistic/ind-1/annealed5": "749b085153b72194",
	"probabilistic/ind-1/perfect":   "e20e1167570f262b",
	"probabilistic/ind-1/smart5":    "67c26c6f46ff1886",
	"probabilistic/ind-1/static5":   "3ff5d846c38aff47",
	"probabilistic/ind-2/annealed5": "bf1adbc3b51617d5",
	"probabilistic/ind-2/perfect":   "885d8810fcf22366",
	"probabilistic/ind-2/smart5":    "001f195ce7abc9f2",
	"probabilistic/ind-2/static5":   "7b67af4ffd955c83",
	"probabilistic/ties/annealed5":  "b52ad4ffc43ed120",
	"probabilistic/ties/perfect":    "62622ea8665eec6a",
	"probabilistic/ties/smart5":     "66e206379bb6d2f7",
	"probabilistic/ties/static5":    "21879144515fa148",
	"sl/ant-1/annealed5":            "6d1c44fd1f376bb8",
	"sl/ant-1/perfect":              "256f1e5a0b9dcb7e",
	"sl/ant-1/smart5":               "fc63cf5a2267c598",
	"sl/ant-1/static5":              "d729e74ffbf8bb76",
	"sl/ant-2/annealed5":            "ebef4209bcfdc5b2",
	"sl/ant-2/perfect":              "aceed7192bac6fef",
	"sl/ant-2/smart5":               "4d52282ea7cc8a25",
	"sl/ant-2/static5":              "81d5e7be72af86c9",
	"sl/ind-1/annealed5":            "02790a4cb5164ed5",
	"sl/ind-1/perfect":              "58685e31af94260e",
	"sl/ind-1/smart5":               "09e0160593bdaba8",
	"sl/ind-1/static5":              "2a7ef1cd5cba72ee",
	"sl/ind-2/annealed5":            "ce93cb841604fc26",
	"sl/ind-2/perfect":              "748e5fed65cc9d39",
	"sl/ind-2/smart5":               "b45a6cea5e3d944d",
	"sl/ind-2/static5":              "1d60fae9b7ce2783",
	"sl/ties/annealed5":             "70e4902ef7a13d20",
	"sl/ties/perfect":               "95e5a13699dba1be",
	"sl/ties/smart5":                "e4db3d6433627b0f",
	"sl/ties/static5":               "0ace1a7289d1cf0d",
}

// TestRequestStreamGolden pins every schedule's request stream round for
// round, and its result, under perfect and noisy crowds, every pruning
// configuration, and (Serial, with and without the probabilistic readout)
// fixed budgets. The schedules may be restructured freely as long as what
// they ask, and when, is unchanged.
func TestRequestStreamGolden(t *testing.T) {
	// goldenName keys each schedule's cases in goldenStreams.
	goldenName := [...]string{Serial: "crowdsky", ByDominatingSets: "dset", BySkylineLayers: "sl"}
	got := make(map[string]string)
	record := func(name string, sched Schedule, algo func(*dataset.Dataset, crowd.Platform, Options) *Result) {
		for _, ds := range goldenDatasets() {
			for _, c := range goldenCrowds {
				h := sha256.New()
				run := func(label string, opts Options) *Result {
					fmt.Fprintf(h, "case %s budget=%d\n", label, opts.MaxQuestions)
					opts.Schedule = sched
					opts.Voting = c.policy(ds.d)
					res := algo(ds.d, &streamHasher{Platform: goldenPlatform(ds.d, c.noisy), h: h}, opts)
					hashResult(h, res)
					return res
				}
				for _, o := range goldenOptions {
					if o.rr && ds.d.CrowdDims() < 2 {
						continue
					}
					full := run(o.name, o.opts)
					if sched != Serial {
						continue
					}
					for _, budget := range []int{1, 5, full.Questions / 2} {
						opts := o.opts
						opts.MaxQuestions = max(budget, 1)
						run(o.name, opts)
					}
				}
				got[name+"/"+ds.name+"/"+c.name] = hex.EncodeToString(h.Sum(nil)[:8])
			}
		}
	}
	for s := range Schedule(len(schedules)) {
		record(goldenName[s], s, Run)
	}
	record("probabilistic", Serial, func(d *dataset.Dataset, pf crowd.Platform, opts Options) *Result {
		res := CrowdSkyProbabilistic(d, pf, opts)
		h := pf.(*streamHasher).h
		for _, tp := range res.Probabilities {
			fmt.Fprintf(h, "prob %d %v %d %d\n", tp.Tuple, tp.Probability, tp.Survived, tp.Unresolved)
		}
		return &res.Result
	})
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Printf("\t%q: %q,\n", k, got[k])
		}
		t.Skip("printed the golden table")
	}
	if len(got) != len(goldenStreams) {
		t.Errorf("%d cases, golden table has %d", len(got), len(goldenStreams))
	}
	for k, h := range got {
		if want := goldenStreams[k]; h != want {
			t.Errorf("%s: request stream hash %s, golden %s", k, h, want)
		}
	}
}
