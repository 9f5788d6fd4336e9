package core

import (
	"slices"
	"testing"

	"crowdsky/internal/dataset"
	"crowdsky/internal/voting"
)

// refSkylineLayers is the admission rule the cursor rule replaced: a
// waiting tuple starts once every member of c(t), its immediate
// dominators, is decided. Each call returns the tuples it starts, in
// waiting order.
func refSkylineLayers(ss *session, waiting []int) func() []int {
	imm := ss.ix.ImmediateDominators()
	waiting = slices.Clone(waiting)
	return func() []int {
		var started []int
		keep := waiting[:0]
	next:
		for _, t := range waiting {
			for _, s := range imm[t] {
				if ss.status[s] == undecided {
					keep = append(keep, t)
					continue next
				}
			}
			started = append(started, t)
		}
		waiting = keep
		return started
	}
}

// TestSkylineLayerAdmission: the DS(t) cursor rule starts exactly the
// tuples the c(t) rule starts, in the same order, on every admit call of a
// run. The inputs cover random IND, ANT and CORR data, the golden ties
// grid (whose degenerate-case pass removes tuples and leaves twins), a
// seeded noisy crowd, and a budget that runs out mid-run.
func TestSkylineLayerAdmission(t *testing.T) {
	var ties *dataset.Dataset
	for _, g := range goldenDatasets() {
		if g.name == "ties" {
			ties = g.d
		}
	}
	cases := []struct {
		name   string
		d      *dataset.Dataset
		noisy  bool
		budget bool
	}{
		{"ind", randomDataset(31, 300, 3, 2, dataset.Independent), false, false},
		{"ant", randomDataset(32, 300, 3, 2, dataset.AntiCorrelated), false, false},
		{"corr", randomDataset(33, 300, 3, 1, dataset.Correlated), false, false},
		{"ties", ties, false, false},
		{"ties-noisy", ties, true, false},
		{"ind-noisy", randomDataset(34, 200, 3, 2, dataset.Independent), true, false},
		{"ind-budget", randomDataset(35, 300, 3, 2, dataset.Independent), false, true},
		{"ties-noisy-budget", ties, true, true},
	}
	for _, c := range cases {
		opts := scheduled(BySkylineLayers)
		if c.noisy {
			opts.Voting = voting.Static{Omega: 5}
		}
		if c.budget {
			opts.MaxQuestions = Run(c.d, goldenPlatform(c.d, c.noisy), opts).Questions / 2
		}
		ss, admit := newRun(c.d, goldenPlatform(c.d, c.noisy), opts, "")
		var open []int
		removed, twins := 0, 0
		for t, ds := range dominatingSets(ss) {
			switch {
			case ss.twin[t] >= 0:
				twins++
			case !ss.alive[t]:
				removed++
			case len(ds) > 0:
				open = append(open, t)
			}
		}
		if c.d == ties && (removed == 0 || twins == 0) {
			t.Fatalf("%s: the degenerate-case pass removed %d tuples and left %d twins; want both", c.name, removed, twins)
		}
		ref := refSkylineLayers(ss, open)
		calls, layers := 0, 0
		ss.drive(func(active []*tupleEval) []*tupleEval {
			from := len(active)
			active = admit(active)
			var got []int
			for _, te := range active[from:] {
				got = append(got, te.t)
			}
			if want := ref(); !slices.Equal(got, want) {
				t.Fatalf("%s: admit call %d started %v; the c(t) rule starts %v", c.name, calls, got, want)
			}
			calls++
			if len(got) > 0 {
				layers++
			}
			return active
		})
		if res := ss.finish(); res.Truncated != c.budget {
			t.Fatalf("%s: Truncated = %v; want %v", c.name, res.Truncated, c.budget)
		}
		if layers < 2 {
			t.Fatalf("%s: tuples started on %d admit calls; want several layers", c.name, layers)
		}
	}
}
