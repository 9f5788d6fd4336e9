package core

import (
	"sort"

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
// policy assigns workers per question (freq-independent here: the baseline
// has no importance signal). A nil policy uses one worker.
func Baseline(d *dataset.Dataset, pf crowd.Platform, algo SortAlgorithm, policy voting.Policy) *Result {
	if policy == nil {
		policy = voting.Static{Omega: 1}
	}
	n := d.N()
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	// ranks[j][t] = position of tuple t in the total order of crowd
	// attribute j (0 = most preferred).
	ranks := make([][]int, d.CrowdDims())
	for j := range ranks {
		attr := j
		ask := func(pairs [][2]int) []crowd.Preference {
			reqs := make([]crowd.Request, len(pairs))
			for i, p := range pairs {
				reqs[i] = crowd.Request{
					Q:       crowd.Question{A: p[0], B: p[1], Attr: attr},
					Workers: policy.Workers(0),
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
		ranks[j] = make([]int, n)
		for pos, t := range order {
			ranks[j][t] = pos
		}
	}

	// Machine skyline over AK values plus the crowd-derived ranks.
	var sky []int
	for t := 0; t < n; t++ {
		dominated := false
		for s := 0; s < n && !dominated; s++ {
			if s != t && dominatesWithRanks(d, ranks, s, t) {
				dominated = true
			}
		}
		if !dominated {
			sky = append(sky, t)
		}
	}
	sort.Ints(sky)
	st := pf.Stats().Snapshot()
	return &Result{
		Skyline:       sky,
		Questions:     st.Questions,
		Rounds:        st.Rounds,
		WorkerAnswers: st.WorkerAnswers,
		Cost:          pf.Stats().Cost(crowd.DefaultReward),
	}
}

// dominatesWithRanks reports dominance over AK values plus crowd-attribute
// ranks (smaller rank = more preferred). Ranks from a total order are
// distinct, so any AK weak dominance plus a rank advantage is strict.
func dominatesWithRanks(d *dataset.Dataset, ranks [][]int, s, t int) bool {
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
	for _, r := range ranks {
		switch {
		case r[s] > r[t]:
			return false
		case r[s] < r[t]:
			strict = true
		}
	}
	return strict
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

	var sky []int
	for t := 0; t < n; t++ {
		dominated := false
		for s := 0; s < n && !dominated; s++ {
			if s != t && dominatesWithEstimates(d, est, s, t) {
				dominated = true
			}
		}
		if !dominated {
			sky = append(sky, t)
		}
	}
	sort.Ints(sky)
	st := up.Stats().Snapshot()
	return &Result{
		Skyline:       sky,
		Questions:     st.Questions,
		Rounds:        st.Rounds,
		WorkerAnswers: st.WorkerAnswers,
		Cost:          up.Stats().Cost(crowd.DefaultReward),
	}
}

// dominatesWithEstimates reports dominance over AK values plus estimated
// crowd-attribute values (smaller = more preferred).
func dominatesWithEstimates(d *dataset.Dataset, est [][]float64, s, t int) bool {
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
	for j := range est[s] {
		switch {
		case est[s][j] > est[t][j]:
			return false
		case est[s][j] < est[t][j]:
			strict = true
		}
	}
	return strict
}
