package voting

import (
	"strings"
	"testing"
)

func TestSmart(t *testing.T) {
	s := NewSmart(5, 100)
	// Early questions boosted regardless of importance.
	if s.Workers(Context{Progress: 0.1, HasProgress: true}) != 7 {
		t.Errorf("early boost missing")
	}
	// High-importance questions boosted at any time.
	if s.Workers(Context{Progress: 0.9, HasProgress: true, Freq: 200}) != 7 {
		t.Errorf("importance boost missing")
	}
	// Recoverable checks (backup pending) are discounted.
	if s.Workers(Context{Progress: 0.5, HasProgress: true, Backup: 2}) != 3 {
		t.Errorf("recoverable check not discounted")
	}
	// Last-chance mid-run checks stay at base ω.
	if s.Workers(Context{Progress: 0.5, HasProgress: true}) != 5 {
		t.Errorf("last-chance check not at base ω")
	}
	// Early beats backup discount: accuracy early matters most.
	if s.Workers(Context{Progress: 0.1, HasProgress: true, Backup: 3}) != 7 {
		t.Errorf("early boost should take precedence over backup discount")
	}
	// Without a progress estimate a question is not early, and importance
	// and backup still count.
	if s.Workers(Context{Progress: 0.1}) != 5 || s.Workers(Context{Freq: 200}) != 7 ||
		s.Workers(Context{Backup: 2}) != 3 {
		t.Errorf("no-progress questions graded wrong")
	}
	if !strings.Contains(s.String(), "β=100") {
		t.Errorf("String = %q", s.String())
	}
	// ω−2 floors at 1.
	low := Smart{Omega: 2, EarlyFrac: 0.3, BetaFreq: 1 << 30}
	if low.Workers(Context{Progress: 0.5, HasProgress: true, Backup: 5}) != 1 {
		t.Errorf("smart worker count fell below 1")
	}
}
