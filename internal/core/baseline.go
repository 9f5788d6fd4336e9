package core

import (
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/sortcrowd"
	"crowdsky/internal/voting"
)

// SortAlgorithm selects the crowd-powered sorting algorithm used by the
// Baseline method.
type SortAlgorithm int

const (
	// TournamentSort is the paper's baseline sorter (Section 6.1): fewest
	// comparisons, O(n log n) rounds.
	TournamentSort SortAlgorithm = iota
	// BitonicSort trades more comparisons for O(log² n) rounds; the paper
	// names it as the other candidate sorting baseline (Section 3).
	BitonicSort
)

// String names the algorithm for experiment output.
func (a SortAlgorithm) String() string {
	if a == BitonicSort {
		return "bitonic"
	}
	return "tournament"
}

// Baseline computes the crowdsourced skyline with the paper's sort-based
// baseline: a crowd-powered sort produces the total order of tuples on
// each crowd attribute, and a machine skyline over the known attributes
// plus the obtained ranks yields the result. It asks every comparison the
// sort needs regardless of skyline relevance, which is what CrowdSky's
// pruning avoids.
//
// policy assigns every question its answer to the zero voting.Context: the
// baseline has no importance, progress or backup signal. A nil policy uses
// one worker.
func Baseline(d *dataset.Dataset, pf crowd.Platform, algo SortAlgorithm, policy voting.Policy) *Result {
	workers := votingPolicy(policy).Workers(voting.Context{})
	n := d.N()
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	// ranks[t][j] = position of tuple t in the total order of crowd
	// attribute j (0 = most preferred).
	ranks := make([][]float64, n)
	for t := range ranks {
		ranks[t] = make([]float64, d.CrowdDims())
	}
	for j := range d.CrowdDims() {
		attr := j
		ask := func(pairs [][2]int) []crowd.Preference {
			reqs := make([]crowd.Request, len(pairs))
			for i, p := range pairs {
				reqs[i] = crowd.Request{
					Q:       crowd.Question{A: p[0], B: p[1], Attr: attr},
					Workers: workers,
				}
			}
			answers := pf.Ask(reqs)
			prefs := make([]crowd.Preference, len(answers))
			for i, a := range answers {
				prefs[i] = a.Pref
			}
			return prefs
		}
		var order []int
		if algo == BitonicSort {
			order = sortcrowd.Bitonic(items, ask)
		} else {
			order = sortcrowd.Tournament(items, ask)
		}
		for pos, t := range order {
			ranks[t][j] = float64(pos)
		}
	}
	st := pf.Stats().Snapshot()
	return &Result{
		Skyline:       machineSkyline(d, ranks),
		Questions:     st.Questions,
		Rounds:        st.Rounds,
		WorkerAnswers: st.WorkerAnswers,
		Cost:          pf.Stats().Cost(crowd.DefaultReward),
	}
}

// Unary computes the crowdsourced skyline with the quantitative-question
// approach the paper simulates for its comparison against Lofi et al. [12]
// (Section 6.1, Figure 11): one unary question per tuple per crowd
// attribute estimates the missing value, all questions run in a single
// round (one-shot strategy), and a machine skyline over the known
// attributes plus the estimates yields the result.
func Unary(d *dataset.Dataset, up crowd.UnaryPlatform, workers int) *Result {
	n := d.N()
	m := d.CrowdDims()
	reqs := make([]crowd.UnaryRequest, 0, n*m)
	for t := 0; t < n; t++ {
		for j := 0; j < m; j++ {
			reqs = append(reqs, crowd.UnaryRequest{Tuple: t, Attr: j, Workers: workers})
		}
	}
	estimates := up.Estimate(reqs)
	est := make([][]float64, n) // est[t][j]
	for i, r := range reqs {
		if est[r.Tuple] == nil {
			est[r.Tuple] = make([]float64, m)
		}
		est[r.Tuple][r.Attr] = estimates[i]
	}
	st := up.Stats().Snapshot()
	return &Result{
		Skyline:       machineSkyline(d, est),
		Questions:     st.Questions,
		Rounds:        st.Rounds,
		WorkerAnswers: st.WorkerAnswers,
		Cost:          up.Stats().Cost(crowd.DefaultReward),
	}
}

// machineSkyline is the machine part of Baseline and Unary: the skyline,
// in index order, over each tuple's AK values plus its crowd values
// crowd[t] (sort ranks or estimates; smaller is preferred). It shares no
// code with skyline.OracleSkyline, which grades both methods.
func machineSkyline(d *dataset.Dataset, crowd [][]float64) []int {
	var sky []int
	for t := range d.N() {
		dominated := false
		for s := 0; s < d.N() && !dominated; s++ {
			dominated = s != t && dominatesWith(d, crowd, s, t)
		}
		if !dominated {
			sky = append(sky, t)
		}
	}
	return sky
}

// dominatesWith reports whether s dominates t over AK values plus the
// crowd values.
func dominatesWith(d *dataset.Dataset, crowd [][]float64, s, t int) bool {
	strict := false
	sr, tr := d.KnownRow(s), d.KnownRow(t)
	for j := range sr {
		switch {
		case sr[j] > tr[j]:
			return false
		case sr[j] < tr[j]:
			strict = true
		}
	}
	for j := range crowd[s] {
		switch {
		case crowd[s][j] > crowd[t][j]:
			return false
		case crowd[s][j] < crowd[t][j]:
			strict = true
		}
	}
	return strict
}
