package skyline

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crowdsky/internal/bitset"
	"crowdsky/internal/dataset"
)

// This file is the columnar dominance engine. Every crowd-enabled run
// needs the same quadratic machine part — dominating sets (Definition 5),
// immediate dominators (Figure 5) and co-domination frequencies (Sections
// 3.4 and 5) — and the naive references in domsets.go recompute the
// underlying pair-wise dominance tests for each construction
// independently. Index computes the dominance relation exactly once, as a
// bitmap, and derives everything else from it:
//
//   - the known attributes are materialized into a flat column-major (SoA)
//     float64 layout, so the kernel streams contiguous memory instead of
//     chasing [][]float64 row pointers;
//   - tuples are sorted by a monotone score (the attribute sum, the SFS
//     ordering already used in algorithms.go): s ≺AK t implies
//     score(s) ≤ score(t), so a tuple's dominators all live in the sorted
//     prefix up to the end of its equal-score run — roughly halving the
//     candidate space and bounding each bitmap row;
//   - the bitmap dom(t) = {s : s ≺AK t} is built in cache-blocked
//     candidate chunks with a rank kernel: per attribute the chunk's
//     sorted-prefix bitmaps ("the r smallest candidates") are
//     materialized once, every target's per-attribute rank selects one
//     prefix row, and the dominator words are the AND of the selected
//     rows — 64 dominance tests collapse into dims word-ANDs with no
//     float comparison in the hot loop. Exact-duplicate groups (identical
//     known rows, which would survive the weak-AND) are cleared in a
//     final pass, restoring strictness. Chunks are the one unit of
//     parallel work: workers claim them from a shared counter;
//   - the transposed bitmap {t : s ≺AK t} is kept beside it, and by the
//     same score order row s starts at the word of s's own equal-score
//     run: on average half of each transposed row is never stored;
//   - DominatorCount, AppendDominators and PendingWord read DS(t)
//     straight from t's dominator row, so crowd sessions never
//     materialize the Σ|DS(t)| ints of the lists; DominatingSets, for
//     callers that want the lists, builds them afresh on every call by
//     an exact-size counting transpose (no append-regrow), and
//     ImmediateDominators is a covered walk down each
//     target's dominator row that tests only the surviving candidates
//     instead of an O(|DS|²·d) rescan, and FreqCounter wraps the
//     transposed bitmap for free.
//
// The derivations are bit-for-bit identical to the naive constructions;
// index_test.go enforces that, and the differential oracle in package
// core grades every session built on the index against OracleSkyline,
// which never reads the index.

// indexCandChunk is the number of candidate positions per cache block.
// The rank kernel materializes (indexCandChunk+1) sorted-prefix bitmap
// rows of indexCandChunk/64 words per attribute — at 1024 candidates
// that is 128 KiB per attribute, so a 4-attribute chunk table stays
// L2-resident while every target scans it. Must be a multiple of 64 so
// chunk word ranges never straddle a bitmap word.
const indexCandChunk = 1024

// IndexStats describes one build, for telemetry and the bench harness.
type IndexStats struct {
	// N is the number of tuples indexed (alive tuples when restricted).
	N int
	// Pairs is the number of dominance pairs recorded in the bitmap.
	Pairs int
	// BitmapBytes is the memory held by the two bitmaps (dominators-of
	// and dominated-by).
	BitmapBytes int64
}

// Index is a dominance index over the known attributes of a dataset
// (optionally restricted to a subset of alive tuples). Build it once per
// run with NewIndex/NewIndexAlive and derive every machine-part
// construction from it; the derivations never re-run a pair-wise
// dominance test. After construction an Index is safe for concurrent
// readers, the row accessors included. DominatingSets and
// ImmediateDominators build a fresh result on every call, which the
// caller owns.
type Index struct {
	d    *dataset.Dataset
	n    int // d.N()
	m    int // laid-out positions: the alive tuples
	dims int

	order  []int     // position -> original tuple index
	pos    []int     // original tuple index -> position; -1 when dead
	cols   []float64 // column-major over positions: cols[j*m+p]
	runEnd []int     // per position: end (exclusive) of its equal-score run

	// domBy[p] = {q : order[q] ≺AK order[p]} with bits keyed by position.
	// Rows are truncated to the words covering [0, runEnd[p]): no
	// dominator can sort after the target's equal-score run.
	domBy []bitset.Set
	// dom[q] = {p : order[q] ≺AK order[p]}, the transpose. Row q holds
	// the words from domStart[q] on, the word of the first position of
	// q's equal-score run: nothing q dominates sorts before its run.
	dom      []bitset.Set
	domStart []int
	counts   []int // |DS| per position

	stats IndexStats
}

// NewIndex builds the dominance index over every tuple of d.
func NewIndex(d *dataset.Dataset) *Index { return NewIndexAlive(d, nil) }

// NewIndexAlive builds the index over the tuples with alive[t] == true;
// dead tuples get empty dominating sets and are never candidates, exactly
// like the alive-restricted naive construction in package core. A nil or
// all-true mask builds the unrestricted index.
func NewIndexAlive(d *dataset.Dataset, alive []bool) *Index {
	ix := &Index{d: d, n: d.N(), dims: d.KnownDims()}
	ix.layout(alive)
	ix.buildBitmap()
	ix.transpose()
	words := 0
	for p := 0; p < ix.m; p++ {
		words += len(ix.domBy[p]) + len(ix.dom[p])
	}
	ix.stats.N = ix.m
	ix.stats.BitmapBytes = int64(words) * 8
	return ix
}

// layout sorts the alive tuples (every tuple when alive is nil) by
// ascending attribute-sum score (ties by original index, so the order is
// deterministic) and materializes the column-major value layout plus the
// equal-score run ends.
//
// Summing left to right is monotone under component-wise ≤, so
// s ≺AK t implies score(s) ≤ score(t) even with rounding; strictness can
// be lost to rounding, which is why a tuple's equal-score run is included
// in its candidate range.
func (ix *Index) layout(alive []bool) {
	d, n := ix.d, ix.n
	order := make([]int, 0, n)
	for t := 0; t < n; t++ {
		if alive == nil || alive[t] {
			order = append(order, t)
		}
	}
	m := len(order)
	score := make([]float64, n)
	for _, t := range order {
		s := 0.0
		for _, v := range d.KnownRow(t) {
			s += v
		}
		score[t] = s
	}
	sort.Slice(order, func(x, y int) bool {
		// Exact score ties define the runs; a tolerance would break the
		// prefix invariant.
		if score[order[x]] != score[order[y]] {
			return score[order[x]] < score[order[y]]
		}
		return order[x] < order[y]
	})
	pos := make([]int, n)
	for t := range pos {
		pos[t] = -1
	}
	for p, t := range order {
		pos[t] = p
	}
	cols := make([]float64, m*ix.dims)
	for p, t := range order {
		row := d.KnownRow(t)
		for j, v := range row {
			cols[j*m+p] = v
		}
	}
	runEnd := make([]int, m)
	for lo := 0; lo < m; {
		hi := lo + 1
		// Runs are exact-score ties by construction.
		for hi < m && score[order[hi]] == score[order[lo]] {
			hi++
		}
		for p := lo; p < hi; p++ {
			runEnd[p] = hi
		}
		lo = hi
	}
	ix.m, ix.order, ix.pos, ix.cols, ix.runEnd = m, order, pos, cols, runEnd
}

// buildBitmap runs the rank kernel. Per candidate chunk it materializes,
// for every attribute, the chunk's sorted-prefix bitmaps prefix[r] =
// "the r smallest chunk candidates on this attribute" and every target's
// rank (how many chunk candidates are ≤ the target, ties included). The
// weak dominators of a target inside the chunk are then
//
//	AND over attributes of prefix[rank(target)]
//
// written word-wise into the target's bitmap row — no float comparison
// in the hot loop. Weak dominance over-counts exactly the candidates
// with a bit-identical known row (and the target itself), so a final
// pass clears each exact-duplicate group and counts the rows.
//
// Whole chunks are the unit of parallel work: min(workers, chunks)
// workers (one below parallelThreshold), the calling goroutine among
// them, claim chunk indices from an atomic counter and process them with
// private scratch tables. Claiming is dynamic because a chunk's targets
// are a suffix that shrinks with the chunk's base, so equal static shares
// would leave the workers uneven. Chunks write disjoint word columns of
// the target rows, so every output word has exactly one writer, no lock
// is taken, and the result is bit-for-bit the one-worker build.
func (ix *Index) buildBitmap() {
	m, dims := ix.m, ix.dims

	// Exact-size row allocation from one backing array: row p covers the
	// words of [0, runEnd[p]).
	rowWords := make([]int, m)
	total := 0
	for p := 0; p < m; p++ {
		rowWords[p] = (ix.runEnd[p] + 63) >> 6
		total += rowWords[p]
	}
	backing := make([]uint64, total)
	ix.domBy = make([]bitset.Set, m)
	off := 0
	for p := 0; p < m; p++ {
		ix.domBy[p] = bitset.Set(backing[off : off+rowWords[p] : off+rowWords[p]])
		off += rowWords[p]
	}
	ix.counts = make([]int, m)
	if m == 0 || dims == 0 {
		// No attributes means no strict preference anywhere: empty rows.
		return
	}

	attrOrder := ix.buildAttrOrder()

	const cw = indexCandChunk >> 6 // words per full chunk
	nchunks := (m + indexCandChunk - 1) / indexCandChunk
	workers := min(workerCount(), nchunks)
	if m < parallelThreshold {
		workers = 1
	}
	var next atomic.Int64
	claim := func() {
		prefix := make([]uint64, dims*(indexCandChunk+1)*cw)
		rank := make([]int32, dims*m)
		for c := int(next.Add(1)) - 1; c < nchunks; c = int(next.Add(1)) - 1 {
			ix.buildChunk(c*indexCandChunk, attrOrder, prefix, rank)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()

	ix.clearDuplicates()

	shard(m, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			row := ix.domBy[p]
			row.Remove(p) // self is a weak dominator only
			ix.counts[p] = row.Count()
		}
	})
	for _, c := range ix.counts {
		ix.stats.Pairs += c
	}
}

// buildAttrOrder returns the global per-attribute value order: entry j
// holds the positions in ascending order of attribute j (ties arbitrary
// but deterministic), the source of both chunk-sorted prefixes and target
// ranks. Attributes sort independently, so they sort on separate workers.
func (ix *Index) buildAttrOrder() [][]int32 {
	m, dims, cols := ix.m, ix.dims, ix.cols
	attrOrder := make([][]int32, dims)
	shardSized(dims, m, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			ord := make([]int32, m)
			for p := range ord {
				ord[p] = int32(p)
			}
			col := cols[j*m : (j+1)*m]
			sort.Slice(ord, func(x, y int) bool { return col[ord[x]] < col[ord[y]] })
			attrOrder[j] = ord
		}
	})
	return attrOrder
}

// buildChunk processes one candidate chunk: it fills the caller-owned
// prefix/rank scratch tables for every attribute from the global value
// order attrOrder, then ANDs the selected prefix rows into the word
// column this chunk owns of every target row.
func (ix *Index) buildChunk(cbase int, attrOrder [][]int32, prefix []uint64, rank []int32) {
	m, dims, cols := ix.m, ix.dims, ix.cols
	const cw = indexCandChunk >> 6
	cend := cbase + indexCandChunk
	if cend > m {
		cend = m
	}
	// A target's candidates stop at its equal-score run, and runEnd is
	// nondecreasing in position, so the targets of this chunk are the
	// suffix starting at the first position whose run reaches past cbase.
	// runEnd[m-1] = m > cbase, so the suffix is never empty.
	tlo := sort.Search(m, func(p int) bool { return ix.runEnd[p] > cbase })

	for j := 0; j < dims; j++ {
		ptab := prefix[j*(indexCandChunk+1)*cw:]
		for w := 0; w < cw; w++ {
			ptab[w] = 0 // rank-0 row
		}
		col := cols[j*m : (j+1)*m]
		rnk := rank[j*m:]
		ord := attrOrder[j]
		// Walk the global order in equal-value groups: admit the
		// group's chunk members into the running prefix first, then
		// stamp every group member's rank, so rank counts ties.
		cnt := 0
		for lo := 0; lo < m; {
			hi := lo + 1
			v := col[ord[lo]]
			// Rank groups mirror the exact <=/< of DominatesKnown.
			for hi < m && col[ord[hi]] == v {
				hi++
			}
			for i := lo; i < hi; i++ {
				p := int(ord[i])
				if p < cbase || p >= cend {
					continue
				}
				src := ptab[cnt*cw : cnt*cw+cw]
				cnt++
				dst := ptab[cnt*cw : cnt*cw+cw]
				copy(dst, src)
				b := uint(p - cbase)
				dst[b>>6] |= 1 << (b & 63)
			}
			for i := lo; i < hi; i++ {
				rnk[ord[i]] = int32(cnt)
			}
			lo = hi
		}
	}

	wbase := cbase >> 6
	for pt := tlo; pt < m; pt++ {
		row := ix.domBy[pt]
		lim := min(len(row)-wbase, cw)
		p0 := prefix[int(rank[pt])*cw:]
		row = row[wbase : wbase+lim]
		for w := 0; w < lim; w++ {
			v := p0[w]
			for j := 1; j < dims; j++ {
				v &= prefix[(j*(indexCandChunk+1)+int(rank[j*m+pt]))*cw+w]
			}
			row[w] = v
		}
	}
}

// clearDuplicates clears every exact-duplicate pair out of the dominator
// rows: tuples with bit-identical known rows are mutually
// weakly-dominating but never strictly, and they necessarily share an
// equal-score run, so only multi-tuple runs need the row comparison.
func (ix *Index) clearDuplicates() {
	var members []int32
	for lo := 0; lo < ix.m; lo = ix.runEnd[lo] {
		hi := ix.runEnd[lo]
		if hi-lo < 2 {
			continue
		}
		members = members[:0]
		for p := lo; p < hi; p++ {
			members = append(members, int32(p))
		}
		sort.Slice(members, func(x, y int) bool { return ix.rowLess(int(members[x]), int(members[y])) })
		for a := 0; a < len(members); {
			b := a + 1
			for b < len(members) && ix.rowEqual(int(members[a]), int(members[b])) {
				b++
			}
			for _, p := range members[a:b] {
				for _, q := range members[a:b] {
					ix.domBy[p].Remove(int(q))
				}
			}
			a = b
		}
	}
}

// rowLess orders positions by their known rows lexicographically.
func (ix *Index) rowLess(p, q int) bool {
	for j := 0; j < ix.dims; j++ {
		pv, qv := ix.cols[j*ix.m+p], ix.cols[j*ix.m+q]
		// Duplicate grouping must be bit-exact to match DominatesKnown.
		if pv != qv {
			return pv < qv
		}
	}
	return false
}

// rowEqual reports bit-exact equality of two positions' known rows.
func (ix *Index) rowEqual(p, q int) bool {
	for j := 0; j < ix.dims; j++ {
		if ix.cols[j*ix.m+p] != ix.cols[j*ix.m+q] {
			return false
		}
	}
	return true
}

// transpose builds dom (dominated-by rows) from domBy (dominators-of
// rows) with 64×64 bit-block transposes. Row q starts at the word
// holding the first position of q's equal-score run: no bit of q's
// column in domBy lies before it. Shards own disjoint destination row
// blocks, so writes never race.
func (ix *Index) transpose() {
	m := ix.m
	words := (m + 63) >> 6
	ix.domStart = make([]int, m)
	total := 0
	for lo := 0; lo < m; lo = ix.runEnd[lo] {
		for p := lo; p < ix.runEnd[lo]; p++ {
			ix.domStart[p] = lo >> 6
			total += words - lo>>6
		}
	}
	backing := make([]uint64, total)
	ix.dom = make([]bitset.Set, m)
	off := 0
	for p := 0; p < m; p++ {
		w := words - ix.domStart[p]
		ix.dom[p] = bitset.Set(backing[off : off+w : off+w])
		off += w
	}
	blocks := words
	// Partition units are 64-row blocks, so the fan-out decision weighs
	// the tuple count, not the block count.
	shardSized(blocks, m, func(lo, hi int) {
		var blk [64]uint64
		for bc := lo; bc < hi; bc++ { // destination row block = source word column
			// Run starts are nondecreasing in position, so the block's
			// first row starts earliest.
			for br := ix.domStart[bc<<6]; br < blocks; br++ { // source row block = destination word column
				any := false
				for k := 0; k < 64; k++ {
					var wv uint64
					if pt := br<<6 + k; pt < m {
						if row := ix.domBy[pt]; bc < len(row) {
							wv = row[bc]
						}
					}
					blk[k] = wv
					any = any || wv != 0
				}
				if !any {
					continue
				}
				transpose64(&blk)
				for k := 0; k < 64; k++ {
					if ps := bc<<6 + k; ps < m && blk[k] != 0 {
						ix.dom[ps][br-ix.domStart[ps]] = blk[k]
					}
				}
			}
		}
	})
}

// transpose64 transposes a 64×64 bit matrix in place: afterwards, bit j
// of word i is the former bit i of word j (Hacker's Delight 7-3 adapted
// to 64 bits and the bit-k-is-column-k convention: each pass swaps the
// off-diagonal blocks of the current block size, halving it).
func transpose64(a *[64]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := ((a[k] >> j) ^ a[k+int(j)]) & mask
			a[k] ^= t << j
			a[k+int(j)] ^= t
		}
		mask ^= mask << (j >> 1)
	}
}

// Stats returns the build statistics.
func (ix *Index) Stats() IndexStats { return ix.stats }

// Matches reports whether the index covers exactly this dataset — built
// over it with every tuple alive — i.e. whether a caller holding d may
// adopt it wholesale.
func (ix *Index) Matches(d *dataset.Dataset) bool { return ix.d == d && ix.m == ix.n }

// Tuples returns the number of tuples of the indexed dataset, dead ones
// included: the range of the tuple arguments below.
func (ix *Index) Tuples() int { return ix.n }

// Pos returns t's position in the index's score order, the bit that
// stands for t in a position-space mask; -1 when t is not indexed (dead
// in an alive-restricted index). Positions lie in [0, Stats().N).
func (ix *Index) Pos(t int) int { return ix.pos[t] }

// DominatorCount returns |DS(t)|; 0 for skyline and dead tuples.
func (ix *Index) DominatorCount(t int) int {
	if p := ix.pos[t]; p >= 0 {
		return ix.counts[p]
	}
	return 0
}

// AppendDominators appends to dst the members of DS(t) whose position is
// not in skip, a position-space mask (nil skips nothing), and returns the
// extended slice. Members come in position order, not tuple order; a
// caller that needs DominatingSets' order sorts what it keeps. The
// members are read straight from t's bitmap row, so no set is
// materialized.
func (ix *Index) AppendDominators(dst []int, t int, skip bitset.Set) []int {
	p := ix.pos[t]
	if p < 0 {
		return dst
	}
	for wi, w := range ix.domBy[p] {
		if wi < len(skip) {
			w &^= skip[wi]
		}
		for ; w != 0; w &= w - 1 {
			dst = append(dst, ix.order[wi<<6+bits.TrailingZeros64(w)])
		}
	}
	return dst
}

// PendingWord returns the index of the first word of t's bitmap row, at
// or after word from, that shares a member with mask, a position-space
// mask; -1 when no such word is left (or t is not indexed). A caller
// waiting for every member of DS(t) to leave a shrinking mask keeps the
// result as a cursor: the words before it never meet the mask again.
func (ix *Index) PendingWord(t, from int, mask bitset.Set) int {
	p := ix.pos[t]
	if p < 0 {
		return -1
	}
	row := ix.domBy[p]
	for wi := from; wi < len(row) && wi < len(mask); wi++ {
		if row[wi]&mask[wi] != 0 {
			return wi
		}
	}
	return -1
}

// DominatingSets returns DS(t) = {s : s ≺AK t} for every tuple, indexed
// by original tuple index with dominators in ascending index order —
// bit-for-bit the result of the naive DominatingSets (dead tuples and
// skyline tuples get nil sets). Every call materializes the sets afresh
// by transposed counting fill: every set is carved at its exact size
// from one backing array, so nothing regrows, and the caller owns the
// result. At Σ|DS(t)| ints it outweighs the bitmap it comes from on
// dense data, so crowd sessions read the rows through AppendDominators
// instead.
func (ix *Index) DominatingSets() [][]int {
	m, n := ix.m, ix.n
	total := 0
	off := make([]int, m+1)
	for p := 0; p < m; p++ {
		off[p+1] = off[p] + ix.counts[p]
		total += ix.counts[p]
	}
	backing := make([]int, total)
	cursor := append([]int(nil), off[:m]...)
	// The scatter walks sources in ascending original index, so every
	// target's set fills in ascending dominator order without a sort.
	// Workers own disjoint word ranges of the transposed rows — hence
	// disjoint target-position ranges, cursors, and backing segments — so
	// the parallel fill writes every slot exactly once, in the same order
	// as the serial one.
	words := (m + 63) >> 6
	shardSized(words, m, func(wlo, whi int) {
		for u := 0; u < n; u++ {
			ps := ix.pos[u]
			if ps < 0 {
				continue
			}
			row, start := ix.dom[ps], ix.domStart[ps]
			for wi := max(wlo, start); wi < whi; wi++ {
				w := row[wi-start]
				for w != 0 {
					pt := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					backing[cursor[pt]] = u
					cursor[pt]++
				}
			}
		}
	})
	sets := make([][]int, n)
	for p := 0; p < m; p++ {
		if ix.counts[p] > 0 {
			sets[ix.order[p]] = backing[off[p]:off[p+1]:off[p+1]]
		}
	}
	return sets
}

// ImmediateDominators returns c(t) for every tuple: the members of DS(t)
// with no intermediate dominator, in ascending tuple order, identical to
// the naive ImmediateDominators over this index's dominating sets.
//
// Each target's dominator row is walked from the highest position down
// with a covered set: a member already covered is skipped, any other
// becomes a candidate and ORs its own dominator row into covered. A
// covered member q lies in the row of some candidate c ∈ DS(t), so
// q ≺AK c ≺AK t and q is provably not immediate. Walking down the score
// order reaches a member before its own dominators, except inside an
// equal-score run, where a rounded tie can order a dominator after the
// member; so the exact test — nothing s dominates lies in DS(t) — still
// runs, over the candidates only. The cost per target is one row walk
// plus O(|c(t)|·n/64) words instead of O(|DS(t)|·n/64). Results share
// one arena per worker.
func (ix *Index) ImmediateDominators() [][]int {
	im := make([][]int, ix.n)
	shard(ix.m, func(lo, hi int) {
		covered := bitset.New(ix.m)
		ends := make([]int, hi-lo)
		var arena []int
		for p := lo; p < hi; p++ {
			row := ix.domBy[p]
			start := len(arena)
			if ix.counts[p] > 0 {
				cov := covered[:len(row)]
				cov.Clear()
				for wi := len(row) - 1; wi >= 0; wi-- {
					for w := row[wi] &^ cov[wi]; w != 0; w &^= cov[wi] {
						b := 63 - bits.LeadingZeros64(w)
						w &^= 1 << uint(b)
						q := wi<<6 + b
						cov.Or(ix.domBy[q])
						arena = append(arena, q)
					}
				}
				// q is a member of row, so its run starts within row.
				k := start
				for _, q := range arena[start:] {
					if !ix.dom[q].Intersects(row[ix.domStart[q]:]) {
						arena[k] = ix.order[q]
						k++
					}
				}
				arena = arena[:k]
				slices.Sort(arena[start:])
			}
			ends[p-lo] = len(arena)
		}
		start := 0
		for p := lo; p < hi; p++ {
			if end := ends[p-lo]; end > start {
				im[ix.order[p]] = arena[start:end:end]
				start = end
			}
		}
	})
	return im
}

// FreqCounter returns a co-domination frequency counter backed by the
// index's bitmap; building it costs nothing beyond the index itself.
func (ix *Index) FreqCounter() *FreqCounter {
	return &FreqCounter{dominated: ix.dom, start: ix.domStart, pos: ix.pos}
}
