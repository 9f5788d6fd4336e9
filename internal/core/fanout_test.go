package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"crowdsky/internal/dataset"
	"crowdsky/internal/telemetry"
	"crowdsky/internal/voting"
)

// setFanOut sets both fan-out thresholds for the test: 0 fans out every
// section, math.MaxInt none.
func setFanOut(t *testing.T, units int) {
	t.Helper()
	oldApply, oldAdmit := applyFanOut, admitFanOut
	applyFanOut, admitFanOut = units, units
	t.Cleanup(func() { applyFanOut, admitFanOut = oldApply, oldAdmit })
}

// fanOutRun is what TestFanOutMatchesSequential compares between two runs.
type fanOutRun struct {
	res        Result
	stream     string // hash of every round's requests, in order
	p1, p2, p3 int    // the run span's removal counts; -1 untraced
}

// TestFanOutMatchesSequential: with every section fanned out, a run asks
// the same requests in the same rounds, returns the same Result and
// reports the same P1/P2/P3 removals as with the fan-out off, for every
// schedule, a perfect and a seeded p = 0.8 crowd under five-worker
// voting, with and without tracing, with the preference tree and without
// it (P1 alone decides from direct answers). The ties dataset's noisy
// answers merge equality classes. Under GOMAXPROCS > 1 the fanned-out
// runs must have started helpers; run with -race, it also checks that
// the sections share no written state.
func TestFanOutMatchesSequential(t *testing.T) {
	var ties *dataset.Dataset
	for _, g := range goldenDatasets() {
		if g.name == "ties" {
			ties = g.d
		}
	}
	datasets := []struct {
		name string
		d    *dataset.Dataset
	}{
		{"ind", randomDataset(41, 250, 3, 2, dataset.Independent)},
		{"ties", ties},
	}
	run := func(d *dataset.Dataset, opts Options, noisy, traced bool) (fanOutRun, *session) {
		h := sha256.New()
		pf := &streamHasher{Platform: goldenPlatform(d, noisy), h: h}
		var tr telemetry.Collector
		if traced {
			opts.Tracer = &tr
		}
		ss, admit := newRun(d, pf, opts, "")
		ss.drive(admit)
		out := fanOutRun{res: *ss.finish(), p1: -1, p2: -1, p3: -1}
		out.stream = hex.EncodeToString(h.Sum(nil))
		if traced {
			span := runSpanOf(t, &tr)
			out.p1, out.p2, out.p3 = attrInt(t, span, "p1_removed"), attrInt(t, span, "p2_removed"), attrInt(t, span, "p3_removed")
		}
		return out, ss
	}
	merged := false
	for _, ds := range datasets {
		for _, sched := range []Schedule{Serial, ByDominatingSets, BySkylineLayers} {
			for _, pruning := range []string{"p1p2p3", "p1"} {
				for _, noisy := range []bool{false, true} {
					for _, traced := range []bool{false, true} {
						name := fmt.Sprintf("%s/%v/%s/noisy=%v/traced=%v", ds.name, sched, pruning, noisy, traced)
						opts := scheduled(sched)
						if pruning == "p1" {
							opts = Options{Schedule: sched, P1: true}
						}
						if noisy {
							opts.Voting = voting.Static{Omega: 5}
						}
						setFanOut(t, math.MaxInt)
						want, _ := run(ds.d, opts, noisy, traced)
						setFanOut(t, 0)
						got, ss := run(ds.d, opts, noisy, traced)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: fanned out\n got %+v\nwant %+v", name, got, want)
						}
						if runtime.GOMAXPROCS(0) > 1 && len(ss.helpers) == 0 {
							t.Fatalf("%s: no helper started with every section fanned out", name)
						}
						for _, g := range ss.graphs {
							merged = merged || g.Unions() > 0
						}
					}
				}
			}
		}
	}
	if !merged {
		t.Fatal("no run merged an equality class")
	}
}
