package crowd

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
)

// Perfect is a Platform whose answers are always correct: every question is
// answered by the ground truth directly, regardless of the requested worker
// count (it still books the requested workers for cost accounting). It
// implements the "answers of crowds are always correct" assumption under
// which Sections 3 and 4 analyze monetary cost and latency.
type Perfect struct {
	Truth Truth
	stats Stats
}

// NewPerfect returns a perfect platform answering from truth.
func NewPerfect(truth Truth) *Perfect { return &Perfect{Truth: truth} }

// Ask implements Platform.
func (p *Perfect) Ask(reqs []Request) []Answer {
	if len(reqs) == 0 {
		return nil
	}
	p.stats.record(reqs)
	out := make([]Answer, len(reqs))
	for i, r := range reqs {
		out[i] = Answer{Q: r.Q, Pref: p.Truth.Answer(r.Q)}
	}
	return out
}

// Stats implements Platform.
func (p *Perfect) Stats() *Stats { return &p.stats }

// Simulated is a Platform that models noisy workers: each question is
// judged by the requested number of workers drawn from a Pool, each worker
// is correct with its individual reliability, and the final answer is the
// majority vote (Section 5). Within one round, repeated occurrences of the
// same question (or its flipped twin) are answered independently, as
// independent worker groups would on AMT.
type Simulated struct {
	Truth Truth
	Pool  *Pool
	Rng   *rand.Rand
	// Quality, when non-nil, tracks per-worker majority agreement and
	// screens blocked workers out of future assignments (the programmatic
	// Masters filter; see Quality).
	Quality *Quality

	stats    Stats
	mistakes int // aggregated answers that differ from truth
}

// NewSimulated returns a noisy simulated platform.
func NewSimulated(truth Truth, pool *Pool, rng *rand.Rand) *Simulated {
	return &Simulated{Truth: truth, Pool: pool, Rng: rng}
}

// Ask implements Platform.
func (s *Simulated) Ask(reqs []Request) []Answer {
	if len(reqs) == 0 {
		return nil
	}
	s.stats.record(reqs)
	out := make([]Answer, len(reqs))
	for i, r := range reqs {
		truth := s.Truth.Answer(r.Q)
		k := r.Workers
		if k < 1 {
			k = 1
		}
		workers := s.assign(k)
		votes := make([]Preference, 0, k)
		for _, w := range workers {
			votes = append(votes, w.Judge(truth, s.Rng))
		}
		pref := MajorityVote(votes)
		if s.Quality != nil {
			for vi, w := range workers {
				s.Quality.Observe(w.ID, votes[vi], pref)
			}
		}
		if pref != truth {
			s.mistakes++
		}
		out[i] = Answer{Q: r.Q, Pref: pref}
	}
	return out
}

// assign picks k workers, skipping quality-blocked ones when screening is
// enabled. If the pool cannot produce k unblocked workers within a bounded
// number of draws (everyone is blocked), it falls back to whatever the
// pool hands out — questions must not starve.
func (s *Simulated) assign(k int) []Worker {
	if s.Quality == nil {
		return s.Pool.Assign(k)
	}
	out := make([]Worker, 0, k)
	for attempts := 0; len(out) < k && attempts < 20*k+100; attempts++ {
		w := s.Pool.Assign(1)[0]
		if s.Quality.Blocked(w.ID) {
			continue
		}
		out = append(out, w)
	}
	for len(out) < k {
		out = append(out, s.Pool.Assign(1)[0])
	}
	return out
}

// Stats implements Platform.
func (s *Simulated) Stats() *Stats { return &s.stats }

// Mistakes returns the number of aggregated answers that differed from the
// ground truth so far.
func (s *Simulated) Mistakes() int { return s.mistakes }

// Interactive is a Platform that asks a human through a text prompt (used
// by cmd/crowdsky to let the operator play the crowd). Each question is
// printed on Out and a line is read from In: "1"/"a" prefers the first
// tuple, "2"/"b" the second, "=" or "e" equal. Ask panics, naming the
// question, when In ends or fails before the question is answered.
type Interactive struct {
	In  io.Reader
	Out io.Writer
	// Describe renders a tuple for the prompt; defaults to the index.
	Describe func(tuple int) string
	// AttrName renders a crowd attribute name; defaults to the index.
	AttrName func(attr int) string

	scanner *bufio.Scanner
	stats   Stats
}

// Ask implements Platform.
func (ia *Interactive) Ask(reqs []Request) []Answer {
	if len(reqs) == 0 {
		return nil
	}
	if ia.scanner == nil {
		ia.scanner = bufio.NewScanner(ia.In)
	}
	ia.stats.record(reqs)
	desc := ia.Describe
	if desc == nil {
		desc = func(t int) string { return fmt.Sprintf("tuple %d", t) }
	}
	attr := ia.AttrName
	if attr == nil {
		attr = func(a int) string { return fmt.Sprintf("attribute %d", a) }
	}
	out := make([]Answer, len(reqs))
	for i, r := range reqs {
		on, a, b := attr(r.Q.Attr), desc(r.Q.A), desc(r.Q.B)
		fmt.Fprintf(ia.Out, "Which is preferred on %s?\n  [1] %s\n  [2] %s\n  [=] equally preferred\n> ", on, a, b)
		pref, err := ia.read()
		if err != nil {
			// Platform has no error channel. Any default answer would be a
			// judgment the operator never made, and a journal would replay
			// it as paid.
			panic(fmt.Sprintf("crowd: no answer to %s vs %s on %s: %v", a, b, on, err))
		}
		out[i] = Answer{Q: r.Q, Pref: pref}
	}
	return out
}

// read returns the next valid answer line, re-prompting on invalid ones.
// It fails at end of input (io.ErrUnexpectedEOF) or on a read error.
func (ia *Interactive) read() (Preference, error) {
	for ia.scanner.Scan() {
		switch strings.ToLower(strings.TrimSpace(ia.scanner.Text())) {
		case "1", "a":
			return First, nil
		case "2", "b":
			return Second, nil
		case "=", "e", "equal":
			return Equal, nil
		}
		fmt.Fprint(ia.Out, "please answer 1, 2 or =\n> ")
	}
	if err := ia.scanner.Err(); err != nil {
		return Equal, err
	}
	return Equal, io.ErrUnexpectedEOF
}

// Stats implements Platform.
func (ia *Interactive) Stats() *Stats { return &ia.stats }

// Recorder wraps a Platform and records every answer it returns, in
// order.
type Recorder struct {
	Inner Platform
	Log   []Answer
}

// Ask implements Platform.
func (r *Recorder) Ask(reqs []Request) []Answer {
	return r.AskCtx(context.Background(), reqs)
}

// AskCtx implements ContextPlatform, forwarding the context to the inner
// platform.
func (r *Recorder) AskCtx(ctx context.Context, reqs []Request) []Answer {
	answers := AskWithContext(ctx, r.Inner, reqs)
	r.Log = append(r.Log, answers...)
	return answers
}

// Stats implements Platform.
func (r *Recorder) Stats() *Stats { return r.Inner.Stats() }
