package core

import (
	"slices"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// status is a tuple's readout in a run.
type status uint8

const (
	undecided status = iota
	// inSkyline marks a complete skyline tuple, or one read out
	// optimistically because it needed the crowd after the budget ran out.
	inSkyline
	// dominated marks a complete non-skyline tuple.
	dominated
)

// newRun opens the session and pays everything before its first pipeline:
// the degenerate-case preprocessing, the machine part, and the readout of
// the SKY_AK tuples, which are complete skyline tuples from the start
// (Example 2; Algorithm 2, line 4). It returns the session and the
// admission rule of opts.Schedule over the alive tuples left to evaluate.
// The run span's algo attribute is the schedule's name plus readout.
func newRun(d *dataset.Dataset, pf crowd.Platform, opts Options, readout string) (*session, admitRule) {
	if err := opts.Schedule.Check(); err != nil {
		panic("core: " + err.Error())
	}
	sched := schedules[opts.Schedule]
	ss := newSession(d, pf, opts)
	ss.startRun(sched.name + readout)
	ss.preprocessDegenerate()
	ss.prepMachine()
	var open []int
	for t, alive := range ss.alive {
		switch {
		case !alive:
		case ss.ix.DominatorCount(t) == 0:
			ss.setStatus(t, inSkyline)
		default:
			open = append(open, t)
		}
	}
	return ss, sched.admit(ss, open)
}

// drive is the round driver of every schedule. admit is the schedule's
// admission rule: given the active pipelines, it appends the ones it
// starts now and returns the list.
//
// Each round, every active pipeline calls next once, which takes the steps
// the answers so far decide for free. A pipeline that completes is read
// out into ss.status, which may let admit start more pipelines, so
// admitting and advancing repeat until neither makes progress. The pairs
// the remaining pipelines wait on then go to the crowd as one round, each
// pair once, with the backup count of the first pipeline naming it.
// Pipelines keep their admission order, so a round's requests do too. The
// run ends when nothing is active and admit starts nothing.
//
// Once the budget is spent, a pipeline that needs the crowd is read out as
// not dominated; admission and the free steps go on as before.
func (ss *session) drive(admit admitRule) {
	var active []*tupleEval
	// The round's requests and the pairs they cover, both reused from
	// round to round (crowd.Platform.Ask does not keep reqs).
	var reqs []crowd.Request
	seen := make(map[pair]struct{})
	// advance calls next on active[from:], queues the pair of every
	// pipeline that waits on the crowd, and reads out the rest; it reports
	// whether any pipeline completed.
	advance := func(from int) bool {
		keep := active[:from]
		for _, te := range active[from:] {
			if p, ok := te.next(ss); ok && ss.budgetLeft() {
				keep = append(keep, te)
				if _, dup := seen[p]; !dup {
					seen[p] = struct{}{}
					reqs = ss.unknownAttrs(p.a(), p.b(), te.pendingBackup, reqs)
				}
				continue
			}
			if te.killed {
				ss.setStatus(te.t, dominated)
			} else {
				ss.setStatus(te.t, inSkyline)
			}
			if ss.kept != nil {
				ss.kept[te.t] = te
			}
		}
		completed := len(keep) < len(active)
		active = keep
		return completed
	}
	for {
		reqs = reqs[:0]
		clear(seen)
		completed := advance(0)
		for completed || len(active) == 0 {
			from := len(active)
			if active = admit(active); len(active) == from {
				break
			}
			completed = advance(from)
		}
		if len(active) == 0 {
			return
		}
		ss.askRound(reqs)
	}
}

// serial is Algorithm 1's admission rule: the next tuple of order, in
// ascending |DS(t)| under P1 (Lemma 3: every member of DS(t) is then
// complete before t starts), once nothing is active.
func (ss *session) serial(order []int) admitRule {
	if ss.opts.P1 {
		ss.sortByDSSize(order)
	}
	return func(active []*tupleEval) []*tupleEval {
		if len(active) > 0 || len(order) == 0 {
			return active
		}
		t := order[0]
		order = order[1:]
		return append(active, ss.gen.newTupleEval(t, nil))
	}
}

// startPipelines is the admission-batch entry of the parallel schedules:
// it appends to active one pipeline per tuple of ts, in ts order, each
// built from sets[t], or from DS(t) in the index when sets is nil. The
// pipelines are built by fanOut, one item per tuple, when the sets' total
// size reaches admitFanOut.
func (ss *session) startPipelines(active []*tupleEval, ts []int, sets [][]int) []*tupleEval {
	units := 0
	for _, t := range ts {
		if sets != nil {
			units += len(sets[t])
		} else {
			units += ss.ix.DominatorCount(t)
		}
	}
	from := len(active)
	active = slices.Grow(active, len(ts))[:from+len(ts)]
	ss.job.section, ss.job.tuples, ss.job.sets, ss.job.evals = buildEvals, ts, sets, active[from:]
	ss.fanOut(len(ts), units, admitFanOut)
	return active
}
