// Package dataset provides the relational data model used throughout the
// CrowdSky reproduction: tuples with machine-readable known attributes (AK)
// and latent crowd attributes (AC), synthetic benchmark generators, the
// paper's worked toy datasets, and embedded real-life-style datasets.
//
// Conventions follow Section 2.2 of the paper: all attribute domains are
// positive reals, and smaller values are more preferred on every attribute.
// Datasets whose natural semantics are "larger is better" (box office,
// rating, wins, ...) are negated/flipped at construction time so the rest of
// the system only ever deals with MIN semantics.
//
// The latent crowd-attribute values are never exposed to query algorithms;
// they exist solely so a simulated crowd (package crowd) can answer pair-wise
// questions, exactly as in the paper's synthetic evaluation ("The values on
// crowd attributes were only used for obtaining the answers of crowds for
// simulated questions", Section 6.1).
package dataset

import (
	"fmt"
	"strings"
)

// Dataset is an instance of the relation R described in Section 2.2. It
// holds n tuples with |AK| known attribute values and |AC| latent crowd
// attribute values per tuple.
//
// The zero value is an empty dataset; use New or a generator to build one.
type Dataset struct {
	known  [][]float64 // known[i][j] = value of tuple i on known attribute j
	latent [][]float64 // latent[i][j] = hidden value of tuple i on crowd attribute j

	names      []string // optional human-readable tuple names
	knownNames []string // attribute names for AK
	crowdNames []string // attribute names for AC

	// crowdKnown[i][j], when the mask is set, marks tuple i's value on
	// crowd attribute j as actually stored (not missing): the engine may
	// read Latent(i, j) directly instead of asking crowds. A nil mask
	// means every crowd value is missing (the paper's hand-off default).
	crowdKnown [][]bool
}

// New constructs a dataset from per-tuple known and latent attribute value
// rows. Both slices must have the same length (one entry per tuple), every
// known row must have the same width, and every latent row must have the
// same width. The rows are used directly (not copied); callers must not
// mutate them afterwards.
func New(known, latent [][]float64) (*Dataset, error) {
	if len(known) != len(latent) {
		return nil, fmt.Errorf("dataset: %d known rows but %d latent rows", len(known), len(latent))
	}
	d := &Dataset{known: known, latent: latent}
	for i := range known {
		if len(known[i]) != len(known[0]) {
			return nil, fmt.Errorf("dataset: known row %d has width %d, want %d", i, len(known[i]), len(known[0]))
		}
		if len(latent[i]) != len(latent[0]) {
			return nil, fmt.Errorf("dataset: latent row %d has width %d, want %d", i, len(latent[i]), len(latent[0]))
		}
	}
	return d, nil
}

// MustNew is like New but panics on error. It is intended for tests and for
// embedding statically known data.
func MustNew(known, latent [][]float64) *Dataset {
	d, err := New(known, latent)
	if err != nil {
		panic(err)
	}
	return d
}

// N returns the number of tuples (the cardinality n of Table 4).
func (d *Dataset) N() int { return len(d.known) }

// KnownDims returns |AK|, the number of known attributes.
func (d *Dataset) KnownDims() int {
	if len(d.known) == 0 {
		return 0
	}
	return len(d.known[0])
}

// CrowdDims returns |AC|, the number of crowd attributes.
func (d *Dataset) CrowdDims() int {
	if len(d.latent) == 0 {
		return 0
	}
	return len(d.latent[0])
}

// Known returns the value of tuple i on known attribute j. Smaller is more
// preferred.
func (d *Dataset) Known(i, j int) float64 { return d.known[i][j] }

// KnownRow returns the known-attribute row of tuple i. The returned slice
// aliases internal storage and must not be modified.
func (d *Dataset) KnownRow(i int) []float64 { return d.known[i] }

// Latent returns the hidden value of tuple i on crowd attribute j. Smaller
// is more preferred. Only crowd simulators and ground-truth oracles may call
// this; query algorithms must not.
func (d *Dataset) Latent(i, j int) float64 { return d.latent[i][j] }

// SetNames attaches human-readable tuple names (e.g. movie titles). The
// slice length must equal N.
func (d *Dataset) SetNames(names []string) error {
	if len(names) != d.N() {
		return fmt.Errorf("dataset: %d names for %d tuples", len(names), d.N())
	}
	d.names = names
	return nil
}

// Name returns the display name of tuple i: the attached name if one was
// set, otherwise "t<i>".
func (d *Dataset) Name(i int) string {
	if d.names != nil {
		return d.names[i]
	}
	return fmt.Sprintf("t%d", i)
}

// Names returns the attached tuple names, or nil when none were set.
func (d *Dataset) Names() []string { return d.names }

// SetAttrNames attaches attribute names for AK and AC. Pass nil to leave a
// side unnamed.
func (d *Dataset) SetAttrNames(known, crowd []string) error {
	if known != nil && len(known) != d.KnownDims() {
		return fmt.Errorf("dataset: %d known attribute names for %d attributes", len(known), d.KnownDims())
	}
	if crowd != nil && len(crowd) != d.CrowdDims() {
		return fmt.Errorf("dataset: %d crowd attribute names for %d attributes", len(crowd), d.CrowdDims())
	}
	if known != nil {
		d.knownNames = known
	}
	if crowd != nil {
		d.crowdNames = crowd
	}
	return nil
}

// KnownAttrName returns the name of known attribute j ("A<j+1>" when unset).
func (d *Dataset) KnownAttrName(j int) string {
	if d.knownNames != nil {
		return d.knownNames[j]
	}
	return fmt.Sprintf("A%d", j+1)
}

// CrowdAttrName returns the name of crowd attribute j. Unset names continue
// the A-numbering after the known attributes, matching the paper's toy
// examples (AK={A1,A2}, AC={A3}).
func (d *Dataset) CrowdAttrName(j int) string {
	if d.crowdNames != nil {
		return d.crowdNames[j]
	}
	return fmt.Sprintf("A%d", d.KnownDims()+j+1)
}

// Index returns the index of the tuple with the given name, or -1 when no
// tuple has that name.
func (d *Dataset) Index(name string) int {
	for i, n := range d.names {
		if n == name {
			return i
		}
	}
	return -1
}

// String summarizes the dataset shape, e.g. "dataset(n=12, |AK|=2, |AC|=1)".
func (d *Dataset) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataset(n=%d, |AK|=%d, |AC|=%d)", d.N(), d.KnownDims(), d.CrowdDims())
	return b.String()
}

// SetCrowdKnown installs the stored-value mask for the crowd attributes:
// mask[i][j] = true means tuple i's value on crowd attribute j is stored
// and need not be crowdsourced (the partial-missing scenario of Example 1:
// "When some values of tuples are missing, we can apply our proposed
// solution to only the tuples with missing values"). The mask dimensions
// must match the dataset.
func (d *Dataset) SetCrowdKnown(mask [][]bool) error {
	if len(mask) != d.N() {
		return fmt.Errorf("dataset: mask has %d rows for %d tuples", len(mask), d.N())
	}
	for i, row := range mask {
		if len(row) != d.CrowdDims() {
			return fmt.Errorf("dataset: mask row %d has %d entries for %d crowd attributes", i, len(row), d.CrowdDims())
		}
	}
	d.crowdKnown = mask
	return nil
}

// CrowdValueKnown reports whether tuple i's value on crowd attribute j is
// stored rather than missing.
func (d *Dataset) CrowdValueKnown(i, j int) bool {
	return d.crowdKnown != nil && d.crowdKnown[i][j]
}

// DistinctKnown reports whether all tuples are pair-wise distinct on AK,
// i.e. for any two tuples there is at least one known attribute on which
// they differ. The paper's pruning lemmas assume this after the
// degenerate-case pre-processing (Algorithm 1, lines 1-3).
func (d *Dataset) DistinctKnown() bool {
	for i := 0; i < d.N(); i++ {
	next:
		for j := i + 1; j < d.N(); j++ {
			for k := 0; k < d.KnownDims(); k++ {
				if d.known[i][k] != d.known[j][k] {
					continue next
				}
			}
			return false
		}
	}
	return true
}
