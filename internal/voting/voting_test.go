package voting

import (
	"math"
	"strings"
	"testing"
)

func TestStatic(t *testing.T) {
	p := Static{Omega: 5}
	if p.Workers(Context{Freq: 0}) != 5 || p.Workers(Context{Freq: 1000}) != 5 {
		t.Errorf("static policy varies with frequency")
	}
	if !strings.Contains(p.String(), "5") {
		t.Errorf("String = %q", p.String())
	}
}

// TestNoContext pins every policy's answer to the zero Context, the
// engine's "no context" question and its nominal ω: Static and Annealed
// give ω, DynamicAlphaBeta grades freq 0, and Smart gives ω unless its β
// is 0, when every question is important.
func TestNoContext(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want int
	}{
		{Static{Omega: 5}, 5},
		{DynamicAlphaBeta{Omega: 5, Alpha: 3, Beta: 10}, 3},
		{DynamicAlphaBeta{Omega: 5, Alpha: 0, Beta: 10}, 5},
		{NewAnnealed(5), 5},
		{NewSmart(5, 100), 5},
		{NewSmart(5, 0), 7},
	} {
		if got := tc.p.Workers(Context{}); got != tc.want {
			t.Errorf("%v: %d workers without context, want %d", tc.p, got, tc.want)
		}
	}
}

func TestDynamicAlphaBeta(t *testing.T) {
	p := DynamicAlphaBeta{Omega: 5, Alpha: 3, Beta: 10}
	if p.Workers(Context{Freq: 0}) != 3 {
		t.Errorf("low-importance workers = %d, want ω-2 = 3", p.Workers(Context{Freq: 0}))
	}
	if p.Workers(Context{Freq: 3}) != 5 || p.Workers(Context{Freq: 9}) != 5 {
		t.Errorf("mid-importance workers wrong")
	}
	if p.Workers(Context{Freq: 10}) != 7 || p.Workers(Context{Freq: 100}) != 7 {
		t.Errorf("high-importance workers wrong")
	}
	// ω−2 never drops below one worker.
	tiny := DynamicAlphaBeta{Omega: 2, Alpha: 5, Beta: 10}
	if tiny.Workers(Context{Freq: 0}) != 1 {
		t.Errorf("worker count fell below 1")
	}
	if !strings.Contains(p.String(), "α=3") {
		t.Errorf("String = %q", p.String())
	}
}

func TestNewDynamicPercentile(t *testing.T) {
	// Frequencies 0..99: bottom 30% → ω−2, top 30% → ω+2.
	freqs := make([]int, 100)
	for i := range freqs {
		freqs[i] = i
	}
	p := NewDynamicPercentile(5, freqs, 0.3, 0.3)
	if p.Workers(Context{Freq: 0}) != 3 {
		t.Errorf("lowest importance got %d workers", p.Workers(Context{Freq: 0}))
	}
	if p.Workers(Context{Freq: 50}) != 5 {
		t.Errorf("median importance got %d workers", p.Workers(Context{Freq: 50}))
	}
	if p.Workers(Context{Freq: 99}) != 7 {
		t.Errorf("highest importance got %d workers", p.Workers(Context{Freq: 99}))
	}
	// Budget neutrality: the expected worker count over the candidate
	// distribution stays within 10% of static ω.
	total := 0
	for _, f := range freqs {
		total += p.Workers(Context{Freq: f})
	}
	if total < 450 || total > 550 {
		t.Errorf("dynamic budget = %d workers for 100 questions, want ≈500", total)
	}
}

func TestNewDynamicPercentileDegenerate(t *testing.T) {
	// Empty input → static behavior.
	p := NewDynamicPercentile(5, nil, 0.3, 0.3)
	if p.Workers(Context{Freq: 0}) != 5 || p.Workers(Context{Freq: 1000}) != 5 {
		t.Errorf("empty-distribution policy not static")
	}
	// All-equal frequencies → static behavior (avoid blowing the budget).
	p = NewDynamicPercentile(5, []int{7, 7, 7, 7}, 0.3, 0.3)
	if p.Workers(Context{Freq: 7}) != 5 {
		t.Errorf("uniform-distribution policy assigned %d workers", p.Workers(Context{Freq: 7}))
	}
}

func TestCorrectProbability(t *testing.T) {
	// ω = 1: majority accuracy equals worker accuracy.
	if got := CorrectProbability(1, 0.8); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("P(1, 0.8) = %v", got)
	}
	// ω = 3, p = 0.8: 3C2·0.8²·0.2 + 0.8³ = 0.896.
	if got := CorrectProbability(3, 0.8); math.Abs(got-0.896) > 1e-12 {
		t.Errorf("P(3, 0.8) = %v, want 0.896", got)
	}
	// ω = 5, p = 0.8 ≈ 0.94208.
	if got := CorrectProbability(5, 0.8); math.Abs(got-0.94208) > 1e-5 {
		t.Errorf("P(5, 0.8) = %v, want ≈0.94208", got)
	}
	// More workers help (for p > 0.5).
	if CorrectProbability(7, 0.8) <= CorrectProbability(5, 0.8) {
		t.Errorf("P not monotone in ω")
	}
	// Degenerate ω.
	if CorrectProbability(0, 0.8) != 0 {
		t.Errorf("P(0, ·) != 0")
	}
}
