package mlcore

import "math"

// Adam hyper-parameters shared by every trainer in the repository.
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// bc1Table and bc2Table hold the bias corrections 1 - β^t, exactly as
// math.Pow gives them, for t = 0, 1, ... up to the first t at which the
// value rounds to 1.0 (356 for β1, 37,412 for β2). β^t only shrinks, so
// every later t yields 1.0 too. Built at init and never written, the
// tables are shared by concurrent trainers without synchronisation.
var bc1Table, bc2Table = biasCorrectionTable(adamBeta1), biasCorrectionTable(adamBeta2)

func biasCorrectionTable(beta float64) (tab []float64) {
	for t := 0; ; t++ {
		bc := 1 - math.Pow(beta, float64(t))
		if bc == 1 {
			return tab
		}
		tab = append(tab, bc)
	}
}

// biasCorrection returns 1 - β^t from β's table.
func biasCorrection(tab []float64, t int) float64 {
	if t < len(tab) {
		return tab[t]
	}
	return 1
}

// Adam is a lazy Adam optimiser addressed by flat parameter index. Each
// parameter keeps its own timestep, so parameters that sparse inputs leave
// untouched accumulate no stale momentum.
type Adam struct {
	lr    float64
	slots []adamSlot // one per parameter: an update touches one cache line
}

type adamSlot struct {
	m, v float64
	t    int
}

// NewAdam returns an optimiser for n parameters with step size lr.
func NewAdam(n int, lr float64) *Adam {
	return &Adam{lr: lr, slots: make([]adamSlot, n)}
}

// Step updates the moments of parameter idx with gradient g and returns
// the delta to add to that parameter.
func (a *Adam) Step(idx int, g float64) float64 {
	s := &a.slots[idx]
	s.t++
	s.m = adamBeta1*s.m + (1-adamBeta1)*g
	s.v = adamBeta2*s.v + (1-adamBeta2)*g*g
	bc1, bc2 := biasCorrection(bc1Table, s.t), biasCorrection(bc2Table, s.t)
	return -a.lr * (s.m / bc1) / (math.Sqrt(s.v/bc2) + adamEps)
}
