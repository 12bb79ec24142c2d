package mlcore

import (
	"math"

	"repro/internal/stats"
)

// MLPConfig configures a single-hidden-layer perceptron head.
type MLPConfig struct {
	Dim       int     // input feature-space width
	Hidden    int     // hidden units
	Epochs    int     // passes over the training data
	LearnRate float64 // Adam step size
	L2        float64 // L2 regularisation strength
}

// MLP is a one-hidden-layer neural network with ReLU activation and a
// sigmoid output, trained with Adam on sparse inputs. It models the
// fine-tuned prediction heads of the larger language models in the study,
// whose capacity exceeds a linear head.
type MLP struct {
	cfg MLPConfig
	// W1 is Hidden × Dim stored row-major; B1 is the hidden bias.
	W1 []float64
	B1 []float64
	// W2 maps hidden activations to the logit; B2 is the output bias.
	W2 []float64
	B2 float64
}

// NewMLP returns an MLP with Xavier-style random initialisation.
func NewMLP(cfg MLPConfig, rng *stats.RNG) *MLP {
	m := &MLP{
		cfg: cfg,
		W1:  make([]float64, cfg.Hidden*cfg.Dim),
		B1:  make([]float64, cfg.Hidden),
		W2:  make([]float64, cfg.Hidden),
	}
	scale1 := math.Sqrt(2.0 / float64(cfg.Dim))
	for i := range m.W1 {
		m.W1[i] = rng.Norm() * scale1
	}
	scale2 := math.Sqrt(2.0 / float64(cfg.Hidden))
	for i := range m.W2 {
		m.W2[i] = rng.Norm() * scale2
	}
	return m
}

// forward computes hidden activations (ReLU) and the output probability.
func (m *MLP) forward(x SparseVec, hidden []float64) float64 {
	for h := 0; h < m.cfg.Hidden; h++ {
		row := m.W1[h*m.cfg.Dim : (h+1)*m.cfg.Dim]
		z := m.B1[h]
		for i, idx := range x.Idx {
			z += row[idx] * x.Val[i]
		}
		if z < 0 {
			z = 0
		}
		hidden[h] = z
	}
	logit := m.B2
	for h, a := range hidden {
		logit += m.W2[h] * a
	}
	return Sigmoid(logit)
}

// Prob returns the predicted match probability for x.
func (m *MLP) Prob(x SparseVec) float64 {
	hidden := make([]float64, m.cfg.Hidden)
	return m.forward(x, hidden)
}

// Train fits the network on the examples with mini-batch size 1 (the
// datasets are small enough that per-example Adam converges fastest).
// A held-out tenth of the examples serves as a validation set: the weights
// of the best-validation epoch are kept, the early-stopping discipline
// that keeps fine-tuning runs from shipping a diverged final epoch.
func (m *MLP) Train(examples []Example, rng *stats.RNG) {
	if len(examples) == 0 {
		return
	}
	// Split off validation examples (at least 8, at most 10%).
	shuffled := append([]Example(nil), examples...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	nVal := len(shuffled) / 10
	if nVal > 0 && nVal < 8 {
		nVal = min(8, len(shuffled)/2)
	}
	val := shuffled[:nVal]
	examples = shuffled[nVal:]
	if len(examples) == 0 {
		examples = shuffled
		val = nil
	}

	bestLoss := math.Inf(1)
	var bestW1, bestB1, bestW2 []float64
	var bestB2 float64
	snapshot := func() {
		bestW1 = append(bestW1[:0], m.W1...)
		bestB1 = append(bestB1[:0], m.B1...)
		bestW2 = append(bestW2[:0], m.W2...)
		bestB2 = m.B2
	}

	cfg := m.cfg
	nParams := len(m.W1) + len(m.B1) + len(m.W2) + 1
	opt := NewAdam(nParams, cfg.LearnRate)
	hidden := make([]float64, cfg.Hidden)
	gW1 := make([]float64, len(m.W1))
	gB1 := make([]float64, cfg.Hidden)
	gW2 := make([]float64, cfg.Hidden)
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			ex := examples[i]
			p := m.forward(ex.X, hidden)
			gOut := (p - ex.Y) * ex.weight()

			// Output layer gradients.
			for h := 0; h < cfg.Hidden; h++ {
				gW2[h] = gOut*hidden[h] + cfg.L2*m.W2[h]
			}
			gB2 := gOut

			// Hidden layer gradients (ReLU gate: active when hidden > 0).
			for h := 0; h < cfg.Hidden; h++ {
				if hidden[h] <= 0 {
					gB1[h] = 0
					continue
				}
				gB1[h] = gOut * m.W2[h]
			}
			for h := 0; h < cfg.Hidden; h++ {
				gh := gB1[h]
				if gh == 0 {
					continue
				}
				row := gW1[h*cfg.Dim : (h+1)*cfg.Dim]
				for k, idx := range ex.X.Idx {
					row[idx] = gh * ex.X.Val[k]
				}
			}

			// Apply updates. W1 rows only touch the sparse input indices.
			base := 0
			for h := 0; h < cfg.Hidden; h++ {
				if gB1[h] != 0 {
					rowG := gW1[h*cfg.Dim : (h+1)*cfg.Dim]
					rowW := m.W1[h*cfg.Dim : (h+1)*cfg.Dim]
					for _, idx := range ex.X.Idx {
						delta := opt.Step(base+idx, rowG[idx]+cfg.L2*rowW[idx])
						rowW[idx] += delta
						rowG[idx] = 0
					}
				}
				base += cfg.Dim
			}
			for h := 0; h < cfg.Hidden; h++ {
				m.B1[h] += opt.Step(base+h, gB1[h])
			}
			base += cfg.Hidden
			for h := 0; h < cfg.Hidden; h++ {
				m.W2[h] += opt.Step(base+h, gW2[h])
			}
			base += cfg.Hidden
			m.B2 += opt.Step(base, gB2)
		}

		// Validation checkpointing.
		if len(val) > 0 {
			loss := 0.0
			for _, ex := range val {
				loss += LogLoss(m.forward(ex.X, hidden), ex.Y)
			}
			if loss < bestLoss {
				bestLoss = loss
				snapshot()
			}
		}
	}
	if bestW1 != nil {
		copy(m.W1, bestW1)
		copy(m.B1, bestB1)
		copy(m.W2, bestW2)
		m.B2 = bestB2
	}
}
