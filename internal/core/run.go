package core

import (
	"fmt"
	"strings"

	"crowdsky/internal/crowd"
	"crowdsky/internal/dataset"
)

// Schedule selects when a tuple's question pipeline may start, and so how
// the questions are arranged into rounds. Every schedule asks from the
// same per-tuple pipeline; only the admission rule differs.
type Schedule int

// Schedules.
const (
	Serial           Schedule = iota // Algorithm 1: one tuple, one pair per round
	ByDominatingSets                 // Section 4.1: disjoint batches of same-size tuples
	BySkylineLayers                  // Algorithm 2: start once DS(t), equivalently c(t), is complete
)

// admitRule is a schedule's admission rule as session.drive takes it:
// given the active pipelines, it appends the ones it starts now.
type admitRule = func(active []*tupleEval) []*tupleEval

// schedules is the one list of schedules: each one's name and the
// constructor of its admission rule over the tuples left open after the
// machine part.
var schedules = [...]struct {
	name  string
	admit func(ss *session, open []int) admitRule
}{
	Serial:           {"serial", (*session).serial},
	ByDominatingSets: {"parallel-dset", (*session).byDominatingSets},
	BySkylineLayers:  {"parallel-sl", (*session).bySkylineLayers},
}

// String names the schedule; it is the run span's algo attribute.
func (s Schedule) String() string {
	if s.Check() != nil {
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
	return schedules[s].name
}

// Check returns an error unless s is one of the schedules.
func (s Schedule) Check() error {
	if s < 0 || int(s) >= len(schedules) {
		return fmt.Errorf("unknown schedule %d", int(s))
	}
	return nil
}

// ParseSchedule returns the schedule a command line names, by its String
// form or by that form without "parallel-": serial, dset or sl.
func ParseSchedule(name string) (Schedule, error) {
	for s := range Schedule(len(schedules)) {
		if full := schedules[s].name; name == full || name == strings.TrimPrefix(full, "parallel-") {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown schedule %q (want serial, dset or sl)", name)
}

// Run computes the crowd-enabled skyline of d, asking pf for every missing
// preference: each tuple outside SKY_AK(R) runs its probing (P3) and
// dominating-set questions Q(t) until it is complete (Definition 4), and
// opts.Schedule decides when it may start. With a perfect platform the
// skyline equals the ground truth over A (Theorem 1). Run panics on a
// schedule that fails Schedule.Check.
func Run(d *dataset.Dataset, pf crowd.Platform, opts Options) *Result {
	ss, admit := newRun(d, pf, opts, "")
	ss.drive(admit)
	return ss.finish()
}
