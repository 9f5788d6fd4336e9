package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Count() != 0 {
		t.Fatalf("fresh set non-empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(129)
	if !s.Has(0) || !s.Has(63) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Errorf("Has wrong across word boundaries")
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d, want 4", s.Count())
	}
	s.Remove(63)
	if s.Has(63) || s.Count() != 3 {
		t.Errorf("Remove broken")
	}
	if got := members(s); len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Errorf("members = %v, want [0 64 129]", got)
	}
	s.Clear()
	if s.Count() != 0 || s.Has(0) || s.Has(129) {
		t.Errorf("Clear left %v", members(s))
	}
}

// members lists the set bits of s in ascending order, for diagnostics.
func members(s Set) []int {
	var m []int
	for i := 0; i < 64*len(s); i++ {
		if s.Has(i) {
			m = append(m, i)
		}
	}
	return m
}

func TestSetAlgebra(t *testing.T) {
	a := New(200)
	b := New(200)
	a.Add(1)
	a.Add(100)
	b.Add(100)
	b.Add(150)
	if a.AndCount(b) != 1 {
		t.Errorf("AndCount = %d, want 1", a.AndCount(b))
	}
	if !a.Intersects(b) {
		t.Errorf("Intersects = false on sets sharing 100")
	}
	u := New(200)
	u.Or(a)
	u.Or(b)
	if u.Count() != 3 || !u.Has(1) || !u.Has(150) {
		t.Errorf("Or wrong: %v", members(u))
	}
	b.Remove(100)
	if a.Intersects(b) || a.AndCount(b) != 0 {
		t.Errorf("disjoint sets intersect")
	}
	// A shorter operand is compared over the common prefix only.
	short := New(64)
	short.Add(1)
	if !a.Intersects(short) || short.Intersects(b) {
		t.Errorf("Intersects over a short operand wrong")
	}
}

func TestCarve(t *testing.T) {
	sets := Carve(5, 130)
	if len(sets) != 5 {
		t.Fatalf("Carve returned %d sets", len(sets))
	}
	for i, s := range sets {
		if len(s) != len(New(130)) {
			t.Fatalf("set %d has %d words, want %d", i, len(s), len(New(130)))
		}
		s.Add(i)
		s.Add(129)
	}
	for i, s := range sets {
		if s.Count() != 2 || !s.Has(i) || !s.Has(129) {
			t.Fatalf("set %d leaked bits from a neighbor: %v", i, members(s))
		}
	}
	// Appending to a carved set must not clobber its neighbor.
	grown := append(sets[0], ^uint64(0))
	_ = grown
	if sets[1].Count() != 2 {
		t.Fatalf("append to carved set spilled into neighbor")
	}
	if got := Carve(0, 10); len(got) != 0 {
		t.Fatalf("Carve(0, n) = %v", got)
	}
	if got := Carve(3, 0); len(got) != 3 || len(got[0]) != 0 {
		t.Fatalf("Carve(n, 0) wrong shape")
	}
}

// TestAgainstMapModel drives random operations against a map-based model.
func TestAgainstMapModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 300
		s := New(n)
		model := map[int]bool{}
		for step := 0; step < 500; step++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.Add(i)
				model[i] = true
			} else {
				s.Remove(i)
				delete(model, i)
			}
		}
		if s.Count() != len(model) {
			return false
		}
		got := members(s)
		var want []int
		for i := range model {
			want = append(want, i)
		}
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
