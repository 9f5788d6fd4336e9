package core

import (
	"runtime"
	"sync/atomic"

	"crowdsky/internal/crowd"
)

// The machine work between two rounds splits into independent items in
// two places: a round's answers fold into one preference graph per crowd
// attribute, and the pipelines one admission starts each reduce and order
// their own dominating set. fanOut shares such a list between the calling
// goroutine and GOMAXPROCS-1 helpers. Every item writes state no other
// item touches (its graph, or its own output slot and its goroutine's
// scratch), so the outcome is the same for every schedule and P count.

// applyFanOut and admitFanOut are the work, in units, below which a
// section runs on the calling goroutine alone: answers for a fold, and
// Σ|DS(t)| over the sets of an admission batch. Starting a helper and
// parking the caller until it is done cost more than smaller sections
// save. They are variables so tests can force the fan-out on (0) or off.
var (
	applyFanOut = 256
	admitFanOut = 4096
)

// qgen is one goroutine's share of question generation: the session it
// reads, the scratch it reuses from tuple to tuple, and its P1/P2 removal
// counts, which finish sums over every qgen.
type qgen struct {
	ss *session
	// pruneDS reduces a dominating set in pruneBuf before copying out the
	// survivors, acSkyline keeps its window's classes in winClasses, and
	// probeOrder lists P3's pairs in probeGen and sorts their keys in
	// probeKeys.
	pruneBuf   []int
	winClasses []acClass
	probeGen   []pair
	probeKeys  []uint64

	p1Removed, p2Removed int // under tracing only
}

// section names the work of one fan-out; session.job holds its inputs.
type section uint8

const (
	foldAnswers section = iota // item j: fold job.answers on crowd attribute j
	buildEvals                 // item i: job.evals[i] is the pipeline of job.tuples[i], from job.sets or the index
)

// job is the current fan-out's section, inputs and next unclaimed item.
// The caller writes it before any helper may claim an item and reads it
// back after every claimed item is done.
type job struct {
	section section
	n       int32 // items
	claim   atomic.Int32
	answers []crowd.Answer
	tuples  []int
	sets    [][]int
	evals   []*tupleEval
}

// runItem does item i of the current job with q's scratch.
func (ss *session) runItem(q *qgen, i int) {
	j := &ss.job
	switch j.section {
	case foldAnswers:
		ss.fold(i, j.answers)
	case buildEvals:
		t := j.tuples[i]
		j.evals[i] = q.newTupleEval(t, j.sets)
	}
}

// work claims and does items of the current job until none is left.
func (ss *session) work(q *qgen) {
	for {
		i := ss.job.claim.Add(1) - 1
		if i >= ss.job.n {
			return
		}
		ss.runItem(q, int(i))
	}
}

// fanOut does the n items of ss.job. Below threshold work units, or with
// one P or one item, the caller does them all. Otherwise it starts up to
// GOMAXPROCS-1 helpers, claims items alongside them and waits for all of
// them.
func (ss *session) fanOut(n, units, threshold int) {
	ss.job.n = int32(n)
	ss.job.claim.Store(0)
	helpers := 0
	if units >= threshold && n > 1 {
		helpers = min(runtime.GOMAXPROCS(0)-1, n-1)
	}
	for len(ss.helpers) < helpers {
		ss.helpers = append(ss.helpers, newHelper(ss))
	}
	ss.wg.Add(helpers)
	for _, h := range ss.helpers[:helpers] {
		go h.run()
	}
	ss.work(&ss.gen)
	ss.wg.Wait()
}

// helper is one fan-out goroutine's question generation.
type helper struct {
	gen qgen
	// run does items with gen and marks the helper done, as a value made
	// once: a go statement on it does not allocate, so a warm fan-out
	// allocates nothing.
	run func()
}

func newHelper(ss *session) *helper {
	h := &helper{gen: qgen{ss: ss}}
	h.run = func() {
		ss.work(&h.gen)
		ss.wg.Done()
	}
	return h
}
