package voting

import (
	"strings"
	"testing"
)

func TestAnnealed(t *testing.T) {
	a := NewAnnealed(5)
	if a.WorkersAt(0.0, 0) != 7 || a.WorkersAt(0.29, 1000) != 7 {
		t.Errorf("early questions not boosted")
	}
	if a.WorkersAt(0.3, 0) != 5 || a.WorkersAt(0.69, 0) != 5 {
		t.Errorf("middle questions not at base ω")
	}
	if a.WorkersAt(0.7, 0) != 3 || a.WorkersAt(1.0, 0) != 3 {
		t.Errorf("late questions not reduced")
	}
	// Progress-free fallback is the base ω.
	if a.Workers(1000) != 5 {
		t.Errorf("Workers fallback = %d, want 5", a.Workers(1000))
	}
	// ω−2 never drops below 1.
	tiny := Annealed{Omega: 2, HiFrac: 0.3, LoFrac: 0.3}
	if tiny.WorkersAt(0.9, 0) != 1 {
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
		total += a.WorkersAt(float64(i)/steps, 0)
	}
	if total != 5*steps {
		t.Errorf("annealed budget = %d workers for %d questions, want exactly %d", total, steps, 5*steps)
	}
}

func TestSmart(t *testing.T) {
	s := NewSmart(5, 100)
	// Early questions boosted regardless of importance.
	if s.WorkersFor(Context{Progress: 0.1, Freq: 0, Backup: 0}) != 7 {
		t.Errorf("early boost missing")
	}
	// High-importance questions boosted at any time.
	if s.WorkersFor(Context{Progress: 0.9, Freq: 200, Backup: 0}) != 7 {
		t.Errorf("importance boost missing")
	}
	// Recoverable checks (backup pending) are discounted.
	if s.WorkersFor(Context{Progress: 0.5, Freq: 0, Backup: 2}) != 3 {
		t.Errorf("recoverable check not discounted")
	}
	// Last-chance mid-run checks stay at base ω.
	if s.WorkersFor(Context{Progress: 0.5, Freq: 0, Backup: 0}) != 5 {
		t.Errorf("last-chance check not at base ω")
	}
	// Early beats backup discount: accuracy early matters most.
	if s.WorkersFor(Context{Progress: 0.1, Freq: 0, Backup: 3}) != 7 {
		t.Errorf("early boost should take precedence over backup discount")
	}
	if s.Workers(200) != 7 || s.Workers(0) != 5 {
		t.Errorf("context-free fallback wrong")
	}
	if !strings.Contains(s.String(), "β=100") {
		t.Errorf("String = %q", s.String())
	}
	// ω−2 floors at 1.
	low := Smart{Omega: 2, EarlyFrac: 0.3, BetaFreq: 1 << 30}
	if low.WorkersFor(Context{Progress: 0.5, Backup: 5}) != 1 {
		t.Errorf("smart worker count fell below 1")
	}
}
