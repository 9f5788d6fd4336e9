// Package skyline is the machine-only skyline substrate: dominance tests
// over the known attributes, the SFS skyline, skyline layers
// (Definition 6), dominating sets (Definition 5), immediate dominators
// c(t) for the skyline-layer parallelization, co-domination frequencies
// freq(u,v) (Sections 3.4 and 5), and a ground-truth oracle over the full
// attribute set A = AK ∪ AC.
//
// Index (engine.go) computes the dominance relation once per run and
// derives every construction from its bitmap; it is what package core
// uses. Each construction also has one naive reference —
// DominatingSets, ImmediateDominators and NewFreqCounter — against which
// index_test.go checks the index.
//
// Equality is exact throughout: dominance and Algorithm 1's degenerate
// case are defined on identical values, so EqualKnown, DominatesKnown and
// the index kernel all compare with ==, <, > and agree bit for bit.
//
// OracleSkyline is the one ground-truth skyline. It compares values
// directly and never reads an Index, so it can grade the index and every
// session built on it; the experiments use it for accuracy and package
// core's differential tests for exactness. Everything here runs without
// crowds.
package skyline

import "crowdsky/internal/dataset"

// DominatesKnown reports s ≺AK t (Definition 1 restricted to AK): s is no
// worse than t on every known attribute and strictly better on at least
// one. Smaller values are preferred.
func DominatesKnown(d *dataset.Dataset, s, t int) bool {
	sr, tr := d.KnownRow(s), d.KnownRow(t)
	strict := false
	for j := range sr {
		switch {
		case sr[j] > tr[j]:
			return false
		case sr[j] < tr[j]:
			strict = true
		}
	}
	return strict
}

// EqualKnown reports whether s and t have identical values on every known
// attribute (the degenerate case of Algorithm 1, lines 1-3).
func EqualKnown(d *dataset.Dataset, s, t int) bool {
	sr, tr := d.KnownRow(s), d.KnownRow(t)
	for j := range sr {
		if sr[j] != tr[j] {
			return false
		}
	}
	return true
}

// dominatesFull reports s ≺A t over all of A = AK ∪ AC using the latent
// crowd values. Only the oracle may use this.
func dominatesFull(d *dataset.Dataset, s, t int) bool {
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
	for j := 0; j < d.CrowdDims(); j++ {
		sv, tv := d.Latent(s, j), d.Latent(t, j)
		switch {
		case sv > tv:
			return false
		case sv < tv:
			strict = true
		}
	}
	return strict
}

// OracleSkyline computes SKY_A(R) from the latent ground truth: the set of
// tuples not dominated over the full attribute set. It is the accuracy
// reference for every experiment (Section 6) and must never be consulted by
// a crowd-enabled algorithm. Targets shard across CPUs; each shard owns
// disjoint flags, so the result does not depend on the worker count, and
// the scan allocates nothing beyond the flags and the result.
func OracleSkyline(d *dataset.Dataset) []int {
	n := d.N()
	flags := make([]bool, n)
	shard(n, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			dominated := false
			for s := 0; s < n && !dominated; s++ {
				if s != t && dominatesFull(d, s, t) {
					dominated = true
				}
			}
			flags[t] = !dominated
		}
	})
	var sky []int
	for t, in := range flags {
		if in {
			sky = append(sky, t)
		}
	}
	return sky
}
