package mlcore

import (
	"math"

	"repro/internal/stats"
)

// Example is one training instance: a sparse feature vector with a binary
// label and an importance weight (used for label balancing and boosting).
type Example struct {
	X      SparseVec
	Y      float64 // 0 or 1
	Weight float64 // importance weight; 0 is treated as 1
}

func (e Example) weight() float64 {
	if e.Weight == 0 {
		return 1
	}
	return e.Weight
}

// LogRegConfig configures logistic-regression training.
type LogRegConfig struct {
	Dim       int     // feature-space width
	Epochs    int     // passes over the training data
	LearnRate float64 // Adam step size
	L2        float64 // L2 regularisation strength
}

// LogReg is an L2-regularised logistic-regression classifier trained with
// Adam. It is the prediction head shared by the encoder-based matchers.
type LogReg struct {
	W    []float64
	Bias float64
}

// TrainLogReg fits a logistic-regression model on the examples, shuffling
// with rng each epoch.
func TrainLogReg(examples []Example, cfg LogRegConfig, rng *stats.RNG) *LogReg {
	m := &LogReg{W: make([]float64, cfg.Dim)}
	if len(examples) == 0 {
		return m
	}
	opt := newGlobalAdam(cfg.Dim+1, cfg.LearnRate)
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	grad := make([]float64, cfg.Dim+1)
	touched := make([]int, 0, 64)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			ex := examples[i]
			p := Sigmoid(ex.X.Dot(m.W) + m.Bias)
			g := (p - ex.Y) * ex.weight()
			touched = touched[:0]
			for k, idx := range ex.X.Idx {
				grad[idx] += g * ex.X.Val[k]
				touched = append(touched, idx)
			}
			grad[cfg.Dim] = g // bias gradient in the last slot
			// L2 on touched weights only (lazy regularisation).
			for _, idx := range touched {
				grad[idx] += cfg.L2 * m.W[idx]
			}
			opt.stepSparse(append(touched, cfg.Dim), grad, func(idx int, delta float64) {
				if idx == cfg.Dim {
					m.Bias += delta
				} else {
					m.W[idx] += delta
				}
			})
			for _, idx := range touched {
				grad[idx] = 0
			}
			grad[cfg.Dim] = 0
		}
	}
	return m
}

// Prob returns the predicted match probability for x.
func (m *LogReg) Prob(x SparseVec) float64 {
	return Sigmoid(x.Dot(m.W) + m.Bias)
}

// globalAdam is the Adam optimiser behind TrainLogReg. Unlike Adam it
// keeps one timestep for all parameters, advanced once per example.
type globalAdam struct {
	lr   float64
	m, v []float64
	t    int
}

func newGlobalAdam(dim int, lr float64) *globalAdam {
	return &globalAdam{lr: lr, m: make([]float64, dim), v: make([]float64, dim)}
}

// stepSparse applies one Adam update to the given indices using the
// gradient buffer; apply receives the delta per index.
func (a *globalAdam) stepSparse(indices []int, grad []float64, apply func(idx int, delta float64)) {
	a.t++
	bc1 := biasCorrection(bc1Table, a.t)
	bc2 := biasCorrection(bc2Table, a.t)
	// Variables, not constants: here 1-β is rounded in float64, a few ulps
	// off Adam.Step's exact constant, and trained weights depend on it.
	beta1, beta2 := float64(adamBeta1), float64(adamBeta2)
	for _, idx := range indices {
		g := grad[idx]
		a.m[idx] = beta1*a.m[idx] + (1-beta1)*g
		a.v[idx] = beta2*a.v[idx] + (1-beta2)*g*g
		apply(idx, -a.lr*(a.m[idx]/bc1)/(math.Sqrt(a.v[idx]/bc2)+adamEps))
	}
}
