package main

import (
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"crowdsky"
	"crowdsky/internal/crowd"
	"crowdsky/internal/prefgraph"
	"crowdsky/internal/skyline"
)

// span is one timed interval of a traced run. Spans of one session share
// a trace id, "workload/session"; ids are unique within a run and a root
// span has parent 0.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	base  time.Time
	spans []span
}

// add records a span and returns its id.
func (t *tracer) add(trace, name string, parent int, iv interval) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: iv.start.Sub(t.base).Nanoseconds(), End: iv.end.Sub(t.base).Nanoseconds(),
	})
	return id
}

// session records the spans of one traced session: the session itself,
// one crowd.ask per round, and one http.<route> per request the
// marketplace served, parented to the round in flight when it started
// (or to the session between rounds). It returns the session span's id.
func (t *tracer) session(trace string, s *session, calls []httpCall) int {
	root := t.add(trace, "session", 0, s.run)
	askIDs := make([]int, len(s.rec.asks))
	for i, a := range s.rec.asks {
		askIDs[i] = t.add(trace, "crowd.ask", root, a)
	}
	for _, c := range calls {
		parent := root
		// The last round to start no later than the call.
		i := sort.Search(len(s.rec.asks), func(i int) bool { return s.rec.asks[i].start.After(c.at.start) }) - 1
		if i >= 0 && c.at.start.Before(s.rec.asks[i].end) {
			parent = askIDs[i]
		}
		t.add(trace, "http."+c.route, parent, c.at)
	}
	return root
}

// selfTimes returns, for every span id, the span's duration minus the
// part of its interval that its children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		if lo, hi := max(c.Start, parent.Start), min(c.End, parent.End); lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// skylineCost is what the dominance-index calls of a session cost when
// timed from outside on the session's dataset.
type skylineCost struct {
	build, sets, imm time.Duration
	bitmapBytes      int64
	pairs, edges     int
}

// measureSkyline times skyline.NewIndex, DominatingSets and
// ImmediateDominators on d and records a span for each.
func measureSkyline(t *tracer, trace string, d *crowdsky.Dataset) skylineCost {
	t0 := time.Now()
	ix := skyline.NewIndex(d)
	t1 := time.Now()
	sets := ix.DominatingSets()
	t2 := time.Now()
	imm := ix.ImmediateDominators()
	t3 := time.Now()
	t.add(trace, "skyline.index_build", 0, interval{t0, t1})
	t.add(trace, "skyline.dominating_sets", 0, interval{t1, t2})
	t.add(trace, "skyline.immediate_dominators", 0, interval{t2, t3})
	c := skylineCost{build: t1.Sub(t0), sets: t2.Sub(t1), imm: t3.Sub(t2), bitmapBytes: ix.Stats().BitmapBytes}
	for i := range sets {
		c.pairs += len(sets[i])
		c.edges += len(imm[i])
	}
	return c
}

// replayCost is what folding a session's answers into fresh preference
// graphs costs.
type replayCost struct {
	dur                                    time.Duration
	answers, edges, unions, contradictions int
	allocBytes                             float64
}

// replay folds the answer log, in round order, into one fresh
// preference graph per crowd attribute, the way a session applies its
// answers, and records a prefgraph.replay span.
func replay(t *tracer, trace string, n, dims int, log []crowd.Answer) replayCost {
	before := readRuntime()
	start := time.Now()
	graphs := make([]*prefgraph.Graph, dims)
	for j := range graphs {
		graphs[j] = prefgraph.New(n)
	}
	for _, a := range log {
		g := graphs[a.Q.Attr]
		switch a.Pref {
		case crowd.First:
			g.AddPrefer(a.Q.A, a.Q.B)
		case crowd.Second:
			g.AddPrefer(a.Q.B, a.Q.A)
		case crowd.Equal:
			g.AddEqual(a.Q.A, a.Q.B)
		}
	}
	end := time.Now()
	after := readRuntime()
	t.add(trace, "prefgraph.replay", 0, interval{start, end})
	c := replayCost{dur: end.Sub(start), answers: len(log), allocBytes: after.allocBytes - before.allocBytes}
	for _, g := range graphs {
		c.edges += g.Edges()
		c.unions += g.Unions()
		c.contradictions += g.Contradictions()
	}
	return c
}

// runtimeSnap is a reading of the Go runtime's cumulative counters.
type runtimeSnap struct {
	allocBytes, allocObjects, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime reads the runtime counters the per-layer metrics use.
func readRuntime() runtimeSnap {
	samples := make([]rtmetrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return runtimeSnap{allocBytes: v[0], allocObjects: v[1], gcCPU: v[2], totalCPU: v[3]}
}

// sub returns the counters accumulated between o and r.
func (r runtimeSnap) sub(o runtimeSnap) runtimeSnap {
	return runtimeSnap{r.allocBytes - o.allocBytes, r.allocObjects - o.allocObjects, r.gcCPU - o.gcCPU, r.totalCPU - o.totalCPU}
}
