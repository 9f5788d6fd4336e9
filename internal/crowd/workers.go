package crowd

import (
	"fmt"
	"math/rand"
)

// Worker is one simulated crowd worker with an individual probability of
// answering a question correctly. An erroneous answer is uniformly one of
// the two incorrect options of the ternary question.
type Worker struct {
	ID          int
	Reliability float64 // probability of a correct answer, in [0,1]
}

// Judge returns the worker's answer to a question whose correct answer is
// truth, using rng for the error draw.
func (w Worker) Judge(truth Preference, rng *rand.Rand) Preference {
	if rng.Float64() < w.Reliability {
		return truth
	}
	// Uniformly pick one of the two wrong options.
	wrong := [2]Preference{}
	k := 0
	for _, p := range [3]Preference{First, Second, Equal} {
		if p != truth {
			wrong[k] = p
			k++
		}
	}
	return wrong[rng.Intn(2)]
}

// PoolConfig describes a simulated worker pool.
type PoolConfig struct {
	// Size is the number of workers; 0 means an unbounded pool of
	// identical workers with Reliability p.
	Size int
	// Reliability is the per-worker correctness probability p
	// (Section 5; the paper's default is 0.8).
	Reliability float64
	// SpammerFraction is the fraction of workers that answer uniformly at
	// random (reliability 1/3), modeling the spam the paper filters with
	// AMT Masters qualification. Only meaningful with Size > 0.
	SpammerFraction float64
}

// Pool is a set of simulated workers questions are assigned from.
type Pool struct {
	workers []Worker
	uniform Worker // used when the pool is unbounded
	next    int
}

// NewPool builds a pool from cfg, using rng to place spammers.
func NewPool(cfg PoolConfig, rng *rand.Rand) (*Pool, error) {
	// Written as !(in range) so that NaN, which fails every comparison,
	// is rejected too.
	if !(cfg.Reliability >= 0 && cfg.Reliability <= 1) {
		return nil, fmt.Errorf("crowd: reliability %v outside [0,1]", cfg.Reliability)
	}
	if !(cfg.SpammerFraction >= 0 && cfg.SpammerFraction <= 1) {
		return nil, fmt.Errorf("crowd: spammer fraction %v outside [0,1]", cfg.SpammerFraction)
	}
	p := &Pool{uniform: Worker{ID: -1, Reliability: cfg.Reliability}}
	if cfg.Size > 0 {
		p.workers = make([]Worker, cfg.Size)
		for i := range p.workers {
			rel := cfg.Reliability
			if rng.Float64() < cfg.SpammerFraction {
				rel = 1.0 / 3.0
			}
			p.workers[i] = Worker{ID: i, Reliability: rel}
		}
	}
	return p, nil
}

// Assign returns k workers for one question. A bounded pool hands workers
// out round-robin (a worker never judges the same question twice within one
// assignment); an unbounded pool returns k copies of the uniform worker.
func (p *Pool) Assign(k int) []Worker {
	out := make([]Worker, k)
	if len(p.workers) == 0 {
		for i := range out {
			out[i] = p.uniform
		}
		return out
	}
	for i := range out {
		out[i] = p.workers[p.next]
		p.next = (p.next + 1) % len(p.workers)
	}
	return out
}

// MajorityVote aggregates worker votes into a final answer: the plurality
// option wins; a tie involving Equal resolves to Equal, and a First/Second
// tie also resolves to Equal (the cautious reading — no preference could be
// established). An empty vote slice resolves to Equal.
func MajorityVote(votes []Preference) Preference {
	var counts [3]int
	for _, v := range votes {
		counts[v]++
	}
	switch {
	case counts[First] > counts[Second] && counts[First] > counts[Equal]:
		return First
	case counts[Second] > counts[First] && counts[Second] > counts[Equal]:
		return Second
	default:
		return Equal
	}
}
