package voting

import (
	"strings"
	"testing"
)

// at is the context of a question asked at progress p.
func at(p float64) Context { return Context{Progress: p, HasProgress: true} }

func TestAnnealed(t *testing.T) {
	a := NewAnnealed(5)
	if a.Workers(at(0.0)) != 7 || a.Workers(Context{Progress: 0.29, HasProgress: true, Freq: 1000}) != 7 {
		t.Errorf("early questions not boosted")
	}
	if a.Workers(at(0.3)) != 5 || a.Workers(at(0.69)) != 5 {
		t.Errorf("middle questions not at base ω")
	}
	if a.Workers(at(0.7)) != 3 || a.Workers(at(1.0)) != 3 {
		t.Errorf("late questions not reduced")
	}
	// Without a progress estimate a question is mid-run, whatever its
	// importance or position.
	if got := a.Workers(Context{Progress: 0.1, Freq: 1000}); got != 5 {
		t.Errorf("no-progress workers = %d, want 5", got)
	}
	// ω−2 never drops below 1.
	tiny := Annealed{Omega: 2, HiFrac: 0.3, LoFrac: 0.3}
	if tiny.Workers(at(0.9)) != 1 {
		t.Errorf("worker count fell below 1")
	}
	if !strings.Contains(a.String(), "30%") {
		t.Errorf("String = %q", a.String())
	}
}

func TestAnnealedBudgetNeutral(t *testing.T) {
	// Uniform question volume over the run: expected workers equal static ω.
	a := NewAnnealed(5)
	total := 0
	const steps = 1000
	for i := 0; i < steps; i++ {
		total += a.Workers(at(float64(i) / steps))
	}
	if total != 5*steps {
		t.Errorf("annealed budget = %d workers for %d questions, want exactly %d", total, steps, 5*steps)
	}
}
