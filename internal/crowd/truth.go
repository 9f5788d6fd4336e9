package crowd

import "crowdsky/internal/dataset"

// Truth supplies ground-truth answers for simulated questions. The paper's
// synthetic evaluation derives answers from the latent crowd-attribute
// values (Section 6.1); DatasetTruth implements exactly that.
type Truth interface {
	// Answer returns the correct preference for q.
	Answer(q Question) Preference
	// Value returns the latent value of tuple i on crowd attribute j, for
	// unary-question simulation (Section 6.1, the comparison against
	// [12]). Smaller is more preferred.
	Value(i, j int) float64
}

// DatasetTruth answers questions from a dataset's latent crowd-attribute
// values. Only identical values are reported as equally preferred, the
// equality that dominance and skyline.OracleSkyline use.
type DatasetTruth struct {
	Data *dataset.Dataset
}

// Answer implements Truth.
func (t DatasetTruth) Answer(q Question) Preference {
	a := t.Data.Latent(q.A, q.Attr)
	b := t.Data.Latent(q.B, q.Attr)
	switch {
	case a < b:
		return First
	case b < a:
		return Second
	default:
		return Equal
	}
}

// Value implements Truth.
func (t DatasetTruth) Value(i, j int) float64 { return t.Data.Latent(i, j) }
