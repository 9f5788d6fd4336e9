package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"crowdsky/internal/core"
	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
	"crowdsky/internal/skyline"
)

// RenderTable1 prints the dominating sets and question sets of the Figure 1
// toy dataset (Table 1), including the Σ|DS(t)| = 26 total of Example 3.
func RenderTable1(w io.Writer) error {
	d := dataset.Toy()
	sets := skyline.NewIndex(d).DominatingSets()
	if _, err := fmt.Fprintln(w, "Table 1: dominating sets and question sets for the toy dataset (Figure 1a)"); err != nil {
		return err
	}
	total := 0
	for i := 0; i < d.N(); i++ {
		if len(sets[i]) == 0 {
			continue
		}
		total += len(sets[i])
		var qs []string
		for _, s := range sets[i] {
			qs = append(qs, fmt.Sprintf("(%s,%s)", d.Name(i), d.Name(s)))
		}
		if _, err := fmt.Fprintf(w, "  DS(%s) = {%s}   Q(%s) = {%s}\n",
			d.Name(i), joinNames(d, sets[i]), d.Name(i), strings.Join(qs, ", ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  total questions Σ|DS(t)| = %d (Example 3)\n", total)
	return err
}

// RenderTable2 prints the P1 evaluation order (sorted dominating sets,
// Table 2a) and then executes the full pruning stack, printing the
// questions actually asked per tuple (the unstruck entries of Table 2b are
// further reduced by P2/P3, Figure 4a).
func RenderTable2(w io.Writer) error {
	d := dataset.Toy()
	ix := skyline.NewIndex(d)
	sets := ix.DominatingSets()
	type entry struct {
		idx  int
		size int
	}
	var entries []entry
	for i := 0; i < d.N(); i++ {
		if len(sets[i]) > 0 {
			entries = append(entries, entry{i, len(sets[i])})
		}
	}
	sort.SliceStable(entries, func(x, y int) bool { return entries[x].size < entries[y].size })
	if _, err := fmt.Fprintln(w, "Table 2a: evaluation order by ascending |DS(t)| (pruning P1)"); err != nil {
		return err
	}
	for _, e := range entries {
		if _, err := fmt.Fprintf(w, "  %s: |DS| = %d, DS = {%s}\n", d.Name(e.idx), e.size, joinNames(d, sets[e.idx])); err != nil {
			return err
		}
	}

	rec := &crowd.Recorder{Inner: crowd.NewPerfect(crowd.DatasetTruth{Data: d})}
	opts := core.AllPruning()
	opts.Index = ix
	res := core.Run(d, rec, opts)
	if _, err := fmt.Fprintln(w, "Questions asked with P1+P2+P3 (Figure 4a):"); err != nil {
		return err
	}
	for _, a := range rec.Log {
		if _, err := fmt.Fprintf(w, "  (%s,%s) -> %s\n", d.Name(a.Q.A), d.Name(a.Q.B), a.Pref); err != nil {
			return err
		}
	}
	var names []string
	for _, t := range res.Skyline {
		names = append(names, d.Name(t))
	}
	sort.Strings(names)
	_, err := fmt.Fprintf(w, "  %d questions; skyline = {%s} (Example 6)\n", res.Questions, strings.Join(names, ", "))
	return err
}

// RenderTable3 executes ParallelSL on the toy dataset and prints the
// per-round question schedule of Table 3.
func RenderTable3(w io.Writer) error {
	d := dataset.Toy()
	pf := crowd.NewPerfect(crowd.DatasetTruth{Data: d})
	rec := &crowd.Recorder{Inner: pf}
	opts := core.AllPruning()
	opts.Schedule = core.BySkylineLayers
	res := core.Run(d, rec, opts)
	if _, err := fmt.Fprintln(w, "Table 3: ParallelSL round schedule on the toy dataset"); err != nil {
		return err
	}
	at := 0
	for ri, rs := range pf.Stats().PerRound() {
		var qs []string
		for i := 0; i < rs.Questions; i++ {
			a := rec.Log[at]
			at++
			qs = append(qs, fmt.Sprintf("(%s,%s)", d.Name(a.Q.A), d.Name(a.Q.B)))
		}
		if _, err := fmt.Fprintf(w, "  round %d: %s\n", ri+1, strings.Join(qs, " ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  %d questions in %d rounds (Example 8)\n", res.Questions, res.Rounds)
	return err
}

func joinNames(d *dataset.Dataset, ids []int) string {
	names := make([]string, 0, len(ids))
	for _, i := range ids {
		names = append(names, d.Name(i))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
