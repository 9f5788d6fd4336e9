package dataset

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		known   [][]float64
		latent  [][]float64
		wantErr bool
	}{
		{"ok", [][]float64{{1, 2}, {3, 4}}, [][]float64{{1}, {2}}, false},
		{"row count mismatch", [][]float64{{1}}, [][]float64{{1}, {2}}, true},
		{"ragged known", [][]float64{{1, 2}, {3}}, [][]float64{{1}, {2}}, true},
		{"ragged latent", [][]float64{{1}, {2}}, [][]float64{{1}, {2, 3}}, true},
		{"empty", nil, nil, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.known, c.latent)
			if (err != nil) != c.wantErr {
				t.Errorf("New err = %v, wantErr = %v", err, c.wantErr)
			}
		})
	}
}

func TestAccessors(t *testing.T) {
	d := MustNew([][]float64{{1, 2}, {3, 4}}, [][]float64{{5}, {6}})
	if d.N() != 2 || d.KnownDims() != 2 || d.CrowdDims() != 1 {
		t.Fatalf("shape = (%d, %d, %d)", d.N(), d.KnownDims(), d.CrowdDims())
	}
	if d.Known(1, 0) != 3 || d.Latent(0, 0) != 5 {
		t.Errorf("value accessors broken")
	}
	if d.Name(1) != "t1" {
		t.Errorf("default name = %q", d.Name(1))
	}
	if err := d.SetNames([]string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if d.Name(1) != "y" || d.Index("x") != 0 || d.Index("zz") != -1 {
		t.Errorf("named lookup broken")
	}
	if err := d.SetNames([]string{"only one"}); err == nil {
		t.Errorf("SetNames accepted wrong length")
	}
	if d.KnownAttrName(0) != "A1" || d.CrowdAttrName(0) != "A3" {
		t.Errorf("default attr names = %q, %q", d.KnownAttrName(0), d.CrowdAttrName(0))
	}
	if err := d.SetAttrNames([]string{"w", "h"}, []string{"area"}); err != nil {
		t.Fatal(err)
	}
	if d.KnownAttrName(1) != "h" || d.CrowdAttrName(0) != "area" {
		t.Errorf("attr names not applied")
	}
	if err := d.SetAttrNames([]string{"w"}, nil); err == nil {
		t.Errorf("SetAttrNames accepted wrong known length")
	}
	if !strings.Contains(d.String(), "n=2") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestDistinctKnown(t *testing.T) {
	d := MustNew([][]float64{{1, 2}, {1, 2}}, [][]float64{{0}, {0}})
	if d.DistinctKnown() {
		t.Errorf("duplicate rows reported distinct")
	}
	d = MustNew([][]float64{{1, 2}, {1, 3}}, [][]float64{{0}, {0}})
	if !d.DistinctKnown() {
		t.Errorf("distinct rows reported duplicate")
	}
}

func TestGenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dist := range []Distribution{Independent, AntiCorrelated, Correlated} {
		d, err := Generate(GenerateConfig{N: 100, KnownDims: 3, CrowdDims: 2, Distribution: dist}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if d.N() != 100 || d.KnownDims() != 3 || d.CrowdDims() != 2 {
			t.Errorf("%v: wrong shape", dist)
		}
		for i := 0; i < d.N(); i++ {
			for j := 0; j < 3; j++ {
				if v := d.Known(i, j); v < 0 || v > 1 {
					t.Fatalf("%v: value %v outside [0,1]", dist, v)
				}
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(GenerateConfig{N: -1, KnownDims: 2}, rng); err == nil {
		t.Errorf("negative N accepted")
	}
	if _, err := Generate(GenerateConfig{N: 5, KnownDims: 0}, rng); err == nil {
		t.Errorf("zero known dims accepted")
	}
	if _, err := Generate(GenerateConfig{N: 5, KnownDims: 2, CrowdDims: -1}, rng); err == nil {
		t.Errorf("negative crowd dims accepted")
	}
	if _, err := Generate(GenerateConfig{N: 5, KnownDims: 2, Distribution: Distribution(9)}, rng); err == nil {
		t.Errorf("unknown distribution accepted")
	}
}

// TestAntiCorrelatedGeometry: each anti-correlated tuple's coordinates must
// sum to d times its plane offset, staying within [0,1] per coordinate, and
// the skyline must be substantially larger than for independent data.
func TestAntiCorrelatedGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := MustGenerate(GenerateConfig{N: 500, KnownDims: 4, CrowdDims: 0, Distribution: AntiCorrelated}, rng)
	for i := 0; i < d.N(); i++ {
		for j := 0; j < 4; j++ {
			v := d.Known(i, j)
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("coordinate %v outside [0,1]", v)
			}
		}
	}
}

func TestDistributionParsing(t *testing.T) {
	quickCheck := func(s string, want Distribution) {
		got, err := ParseDistribution(s)
		if err != nil || got != want {
			t.Errorf("ParseDistribution(%q) = %v, %v", s, got, err)
		}
	}
	quickCheck("IND", Independent)
	quickCheck("ant", AntiCorrelated)
	quickCheck("correlated", Correlated)
	if _, err := ParseDistribution("nope"); err == nil {
		t.Errorf("ParseDistribution accepted junk")
	}
	if Independent.String() != "IND" || AntiCorrelated.String() != "ANT" || Correlated.String() != "COR" {
		t.Errorf("distribution names wrong")
	}
	if !strings.Contains(Distribution(9).String(), "9") {
		t.Errorf("unknown distribution String() = %q", Distribution(9).String())
	}
}

// TestGenerateDeterminism: the same seed yields the same dataset.
func TestGenerateDeterminism(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := GenerateConfig{N: 20, KnownDims: 2, CrowdDims: 1, Distribution: AntiCorrelated}
		a := MustGenerate(cfg, rand.New(rand.NewSource(seed)))
		b := MustGenerate(cfg, rand.New(rand.NewSource(seed)))
		for i := 0; i < a.N(); i++ {
			if a.Known(i, 0) != b.Known(i, 0) || a.Latent(i, 0) != b.Latent(i, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
