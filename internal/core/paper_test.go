package core

// Tests in this file replay the paper's worked examples on the embedded toy
// datasets and check question counts, round counts, question identities and
// final skylines against the numbers printed in the paper (Tables 1-3,
// Examples 2-8, Figure 3). They are the strongest fidelity evidence in the
// repository: every pruning method and both parallelizations must act
// exactly as the running example demands.

import (
	"sort"
	"testing"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
)

// namesOf maps tuple indices to their dataset names, sorted.
func namesOf(d *dataset.Dataset, ids []int) []string {
	out := make([]string, 0, len(ids))
	for _, t := range ids {
		out = append(out, d.Name(t))
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
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

func perfectToy() (*dataset.Dataset, *crowd.Perfect) {
	d := dataset.Toy()
	return d, crowd.NewPerfect(crowd.DatasetTruth{Data: d})
}

// TestPaperTable1 checks the dominating sets of the Figure 1 toy dataset
// against Table 1(a) and the total question count Σ|DS(t)| = 26 of
// Example 3.
func TestPaperTable1(t *testing.T) {
	d := dataset.Toy()
	sets := skyline.DominatingSets(d)
	want := map[string][]string{
		"a": {"b"},
		"b": {},
		"c": {"a", "b", "e"},
		"d": {"b", "e"},
		"e": {},
		"f": {"a", "b", "d", "e"},
		"g": {"e"},
		"h": {"b", "d", "e", "g", "i"},
		"i": {},
		"j": {"a", "b", "d", "e", "f", "g", "h", "i"},
		"k": {"i", "l"},
		"l": {},
	}
	total := 0
	for i := 0; i < d.N(); i++ {
		got := namesOf(d, sets[i])
		if got == nil {
			got = []string{}
		}
		if !sameStrings(got, want[d.Name(i)]) {
			t.Errorf("DS(%s) = %v, want %v", d.Name(i), got, want[d.Name(i)])
		}
		total += len(sets[i])
	}
	if total != 26 {
		t.Errorf("Σ|DS(t)| = %d, want 26 (Example 3)", total)
	}
}

// TestPaperTable2Ordering checks the P1 evaluation order of Table 2(a):
// tuples sorted by ascending dominating-set size are a, g, d, k, c, f, h, j
// (a/g and d/k are interchangeable ties).
func TestPaperTable2Ordering(t *testing.T) {
	d := dataset.Toy()
	sets := skyline.DominatingSets(d)
	type entry struct {
		name string
		size int
	}
	var entries []entry
	for i := 0; i < d.N(); i++ {
		if len(sets[i]) > 0 {
			entries = append(entries, entry{d.Name(i), len(sets[i])})
		}
	}
	sort.SliceStable(entries, func(x, y int) bool { return entries[x].size < entries[y].size })
	wantSizes := map[string]int{"a": 1, "g": 1, "d": 2, "k": 2, "c": 3, "f": 4, "h": 5, "j": 8}
	for _, e := range entries {
		if wantSizes[e.name] != e.size {
			t.Errorf("|DS(%s)| = %d, want %d", e.name, e.size, wantSizes[e.name])
		}
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].size > entries[i].size {
			t.Errorf("evaluation order not ascending at %v", entries[i])
		}
	}
}

// TestPaperExample2Skyline checks the final crowdsourced skyline of the toy
// dataset: {b, e, i, l, k, f, h} (Example 2), for every pruning
// configuration and both parallelizations.
func TestPaperExample2Skyline(t *testing.T) {
	want := []string{"b", "e", "f", "h", "i", "k", "l"}
	configs := []struct {
		name string
		run  func(d *dataset.Dataset, pf crowd.Platform) *Result
	}{
		{"DSet", func(d *dataset.Dataset, pf crowd.Platform) *Result { return Run(d, pf, Options{}) }},
		{"P1", func(d *dataset.Dataset, pf crowd.Platform) *Result { return Run(d, pf, Options{P1: true}) }},
		{"P1P2", func(d *dataset.Dataset, pf crowd.Platform) *Result {
			return Run(d, pf, Options{P1: true, P2: true})
		}},
		{"P1P2P3", func(d *dataset.Dataset, pf crowd.Platform) *Result { return Run(d, pf, AllPruning()) }},
		{"ParallelDSet", func(d *dataset.Dataset, pf crowd.Platform) *Result { return Run(d, pf, scheduled(ByDominatingSets)) }},
		{"ParallelSL", func(d *dataset.Dataset, pf crowd.Platform) *Result { return Run(d, pf, scheduled(BySkylineLayers)) }},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			d, pf := perfectToy()
			res := cfg.run(d, pf)
			got := namesOf(d, res.Skyline)
			if !sameStrings(got, want) {
				t.Errorf("skyline = %v, want %v", got, want)
			}
		})
	}
}

// TestPaperExample6 replays Example 6 / Figure 4: the full pruning stack
// P1+P2+P3 identifies the toy skyline with exactly 12 questions, and the
// question multiset matches Figure 4(a).
func TestPaperExample6(t *testing.T) {
	d := dataset.Toy()
	rec := &crowd.Recorder{Inner: crowd.NewPerfect(crowd.DatasetTruth{Data: d})}
	res := Run(d, rec, AllPruning())
	if res.Questions != 12 {
		t.Errorf("questions = %d, want 12 (Example 6)", res.Questions)
	}
	want := map[string]bool{
		"a-b": true, "e-g": true, "b-e": true, "d-e": true,
		"i-l": true, "i-k": true, "c-e": true, "e-f": true,
		"e-i": true, "e-h": true, "f-h": true, "f-j": true,
	}
	got := make(map[string]bool)
	for _, a := range rec.Log {
		x, y := d.Name(a.Q.A), d.Name(a.Q.B)
		if x > y {
			x, y = y, x
		}
		got[x+"-"+y] = true
	}
	if len(got) != len(want) {
		t.Errorf("distinct pairs asked = %d, want %d: %v", len(got), len(want), got)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing question %s (Figure 4a)", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected question %s (not in Figure 4a)", k)
		}
	}
}

// TestPaperFigure3 checks the probing motivation of Section 3.4 on the
// anti-correlated toy dataset: 24 questions without probing, 9 with.
func TestPaperFigure3(t *testing.T) {
	d := dataset.ToyAnti()
	pfNoP3 := crowd.NewPerfect(crowd.DatasetTruth{Data: d})
	res := Run(d, pfNoP3, Options{P1: true, P2: true})
	if res.Questions != 24 {
		t.Errorf("questions without P3 = %d, want 24 (Section 3.4)", res.Questions)
	}
	pfP3 := crowd.NewPerfect(crowd.DatasetTruth{Data: d})
	res = Run(d, pfP3, AllPruning())
	if res.Questions != 9 {
		t.Errorf("questions with P3 = %d, want 9 (Section 3.4)", res.Questions)
	}
	// With the Figure 3(b) preferences every tuple ends up in the skyline.
	if len(res.Skyline) != d.N() {
		t.Errorf("skyline size = %d, want %d (all tuples)", len(res.Skyline), d.N())
	}
}

// TestPaperExample7 replays Example 7: ParallelDSet answers the toy query
// with 12 questions in 9 rounds.
func TestPaperExample7(t *testing.T) {
	d, pf := perfectToy()
	res := Run(d, pf, scheduled(ByDominatingSets))
	if res.Questions != 12 {
		t.Errorf("questions = %d, want 12 (Example 7)", res.Questions)
	}
	if res.Rounds != 9 {
		t.Errorf("rounds = %d, want 9 (Example 7)", res.Rounds)
	}
}

// TestPaperExample8 replays Example 8 / Table 3: ParallelSL answers the toy
// query with 12 questions in 6 rounds, with the exact per-round schedule of
// Table 3.
func TestPaperExample8(t *testing.T) {
	d := dataset.Toy()
	pf := crowd.NewPerfect(crowd.DatasetTruth{Data: d})
	res := Run(d, pf, scheduled(BySkylineLayers))
	if res.Questions != 12 {
		t.Errorf("questions = %d, want 12 (Example 8)", res.Questions)
	}
	if res.Rounds != 6 {
		t.Errorf("rounds = %d, want 6 (Example 8)", res.Rounds)
	}
	// Check the exact schedule of Table 3.
	perRound := pf.Stats().PerRound()
	wantPerRound := []int{4, 3, 2, 1, 1, 1}
	if len(perRound) != len(wantPerRound) {
		t.Fatalf("rounds = %d, want %d", len(perRound), len(wantPerRound))
	}
	for i, want := range wantPerRound {
		if perRound[i].Questions != want {
			t.Errorf("round %d has %d questions, want %d (Table 3)", i+1, perRound[i].Questions, want)
		}
	}
}

// TestPaperImmediateDominators checks the direct-dominator sets c(t) used
// by Algorithm 2 against the c(t) column of Table 3.
func TestPaperImmediateDominators(t *testing.T) {
	d := dataset.Toy()
	sets := skyline.DominatingSets(d)
	imm := skyline.ImmediateDominators(d, sets)
	want := map[string][]string{
		"a": {"b"},
		"g": {"e"},
		"d": {"b", "e"},
		"k": {"i", "l"},
		"c": {"a", "e"},
		"f": {"a", "d"},
		"h": {"d", "g", "i"},
		"j": {"f", "h"},
	}
	for name, wantC := range want {
		i := d.Index(name)
		got := namesOf(d, imm[i])
		if !sameStrings(got, wantC) {
			t.Errorf("c(%s) = %v, want %v (Table 3)", name, got, wantC)
		}
	}
}

// TestPaperSkylineLayers checks the layer decomposition of Figure 5:
// SL1 = {b,e,i,l}, SL2 = {a,d,g,k}, SL3 = {c,f,h}, SL4 = {j}.
func TestPaperSkylineLayers(t *testing.T) {
	d := dataset.Toy()
	layers := skyline.Layers(d)
	want := [][]string{
		{"b", "e", "i", "l"},
		{"a", "d", "g", "k"},
		{"c", "f", "h"},
		{"j"},
	}
	if len(layers) != len(want) {
		t.Fatalf("layer count = %d, want %d", len(layers), len(want))
	}
	for i := range want {
		got := namesOf(d, layers[i])
		if !sameStrings(got, want[i]) {
			t.Errorf("SL%d = %v, want %v (Figure 5)", i+1, got, want[i])
		}
	}
}
