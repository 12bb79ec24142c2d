// Package moe implements the mixture-of-experts classifier behind the
// Unicorn matcher. Unicorn (Tu et al., SIGMOD 2023) encodes serialized
// pairs with a pretrained encoder, routes the representation through
// task-specialised expert networks via a learned softmax gate, and feeds
// the expert mixture into a shared matching head — the multi-task design
// that lets one model generalise across matching tasks and unseen datasets.
//
// Here the encoder is the hashed-feature encoder from mlcore; the experts
// and the gate are linear maps trained jointly with Adam, reproducing the
// model-aware architecture the paper contrasts with model-agnostic
// fine-tuning.
package moe

import (
	"math"

	"repro/internal/mlcore"
	"repro/internal/stats"
)

// Config configures the mixture-of-experts model.
type Config struct {
	Dim       int     // input feature-space width
	Experts   int     // number of expert networks
	Hidden    int     // hidden units per expert
	Epochs    int     // training passes
	LearnRate float64 // Adam step size
	L2        float64 // L2 regularisation
}

// DefaultConfig returns the configuration used for the Unicorn matcher
// (sized to mirror DeBERTa-base plus Unicorn's expert layer at study
// scale).
func DefaultConfig(dim int) Config {
	return Config{Dim: dim, Experts: 4, Hidden: 24, Epochs: 4, LearnRate: 0.01, L2: 1e-6}
}

// Model is the trained mixture-of-experts classifier.
type Model struct {
	cfg Config
	// gate maps input features to expert logits: Experts × Dim, row-major,
	// plus a bias per expert.
	gateW []float64
	gateB []float64
	// expertW1 holds per-expert hidden layers: Experts × Hidden × Dim.
	expertW1 []float64
	expertB1 []float64 // Experts × Hidden
	// headW maps the mixed hidden representation to the match logit.
	headW []float64 // Hidden
	headB float64
}

// New returns a randomly initialised model.
func New(cfg Config, rng *stats.RNG) *Model {
	m := &Model{
		cfg:      cfg,
		gateW:    make([]float64, cfg.Experts*cfg.Dim),
		gateB:    make([]float64, cfg.Experts),
		expertW1: make([]float64, cfg.Experts*cfg.Hidden*cfg.Dim),
		expertB1: make([]float64, cfg.Experts*cfg.Hidden),
		headW:    make([]float64, cfg.Hidden),
	}
	s1 := math.Sqrt(2.0 / float64(cfg.Dim))
	for i := range m.gateW {
		m.gateW[i] = rng.Norm() * s1
	}
	for i := range m.expertW1 {
		m.expertW1[i] = rng.Norm() * s1
	}
	s2 := math.Sqrt(2.0 / float64(cfg.Hidden))
	for i := range m.headW {
		m.headW[i] = rng.Norm() * s2
	}
	return m
}

// forwardState carries intermediate activations for backprop.
type forwardState struct {
	gateLogits []float64 // Experts
	gateProbs  []float64 // Experts
	hidden     []float64 // Experts × Hidden (post-ReLU)
	mixed      []float64 // Hidden
	prob       float64
}

func (m *Model) newState() *forwardState {
	return &forwardState{
		gateLogits: make([]float64, m.cfg.Experts),
		gateProbs:  make([]float64, m.cfg.Experts),
		hidden:     make([]float64, m.cfg.Experts*m.cfg.Hidden),
		mixed:      make([]float64, m.cfg.Hidden),
	}
}

func (m *Model) forward(x mlcore.SparseVec, st *forwardState) {
	cfg := m.cfg
	// Gate.
	for e := 0; e < cfg.Experts; e++ {
		row := m.gateW[e*cfg.Dim : (e+1)*cfg.Dim]
		z := m.gateB[e]
		for i, idx := range x.Idx {
			z += row[idx] * x.Val[i]
		}
		st.gateLogits[e] = z
	}
	softmax(st.gateLogits, st.gateProbs)

	// Experts.
	for e := 0; e < cfg.Experts; e++ {
		for h := 0; h < cfg.Hidden; h++ {
			row := m.expertW1[(e*cfg.Hidden+h)*cfg.Dim : (e*cfg.Hidden+h+1)*cfg.Dim]
			z := m.expertB1[e*cfg.Hidden+h]
			for i, idx := range x.Idx {
				z += row[idx] * x.Val[i]
			}
			if z < 0 {
				z = 0
			}
			st.hidden[e*cfg.Hidden+h] = z
		}
	}

	// Mix expert outputs by gate probability.
	for h := 0; h < cfg.Hidden; h++ {
		s := 0.0
		for e := 0; e < cfg.Experts; e++ {
			s += st.gateProbs[e] * st.hidden[e*cfg.Hidden+h]
		}
		st.mixed[h] = s
	}

	logit := m.headB
	for h := 0; h < cfg.Hidden; h++ {
		logit += m.headW[h] * st.mixed[h]
	}
	st.prob = mlcore.Sigmoid(logit)
}

// Prob returns the predicted match probability for x.
func (m *Model) Prob(x mlcore.SparseVec) float64 {
	st := m.newState()
	m.forward(x, st)
	return st.prob
}

// GateProbs returns the gate distribution for x; exposed for the ablation
// study on expert specialisation.
func (m *Model) GateProbs(x mlcore.SparseVec) []float64 {
	st := m.newState()
	m.forward(x, st)
	return append([]float64(nil), st.gateProbs...)
}

// Train fits the model on the examples with per-example Adam. As in the
// MLP trainer, a held-out tenth of the examples drives best-epoch
// selection, so a diverged final epoch never ships.
func (m *Model) Train(examples []mlcore.Example, rng *stats.RNG) {
	if len(examples) == 0 {
		return
	}
	shuffled := append([]mlcore.Example(nil), examples...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	nVal := len(shuffled) / 10
	if nVal > 0 && nVal < 8 && len(shuffled) >= 16 {
		nVal = 8
	}
	val := shuffled[:nVal]
	examples = shuffled[nVal:]
	if len(examples) == 0 {
		examples = shuffled
		val = nil
	}

	bestLoss := math.Inf(1)
	var best *snapshot
	cfg := m.cfg
	nParams := len(m.gateW) + len(m.gateB) + len(m.expertW1) + len(m.expertB1) + len(m.headW) + 1
	opt := mlcore.NewAdam(nParams, cfg.LearnRate)
	st := m.newState()
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	gGateLogit := make([]float64, cfg.Experts)
	gHidden := make([]float64, cfg.Experts*cfg.Hidden)

	// Parameter index bases for the flat optimiser state.
	baseGateW := 0
	baseGateB := baseGateW + len(m.gateW)
	baseExpertW1 := baseGateB + len(m.gateB)
	baseExpertB1 := baseExpertW1 + len(m.expertW1)
	baseHeadW := baseExpertB1 + len(m.expertB1)
	baseHeadB := baseHeadW + len(m.headW)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			ex := examples[i]
			m.forward(ex.X, st)
			w := ex.Weight
			if w == 0 {
				w = 1
			}
			gOut := (st.prob - ex.Y) * w

			// Head gradients.
			for h := 0; h < cfg.Hidden; h++ {
				g := gOut*st.mixed[h] + cfg.L2*m.headW[h]
				m.headW[h] += opt.Step(baseHeadW+h, g)
			}
			m.headB += opt.Step(baseHeadB, gOut)

			// Gradient wrt mixed[h] is gOut * headW[h]; distribute to the
			// experts (scaled by gate) and the gate (scaled by hidden).
			for e := 0; e < cfg.Experts; e++ {
				gGateLogit[e] = 0
			}
			for e := 0; e < cfg.Experts; e++ {
				dot := 0.0
				for h := 0; h < cfg.Hidden; h++ {
					gm := gOut * m.headW[h]
					gHidden[e*cfg.Hidden+h] = gm * st.gateProbs[e]
					dot += gm * st.hidden[e*cfg.Hidden+h]
				}
				// Softmax backprop: dL/dlogit_e = p_e * (dot_e - sum_k p_k dot_k).
				gGateLogit[e] = dot
			}
			mixGrad := 0.0
			for e := 0; e < cfg.Experts; e++ {
				mixGrad += st.gateProbs[e] * gGateLogit[e]
			}
			for e := 0; e < cfg.Experts; e++ {
				gGateLogit[e] = st.gateProbs[e] * (gGateLogit[e] - mixGrad)
			}

			// Gate parameter updates (sparse in the input).
			for e := 0; e < cfg.Experts; e++ {
				gl := gGateLogit[e]
				if gl == 0 {
					continue
				}
				rowBase := e * cfg.Dim
				row := m.gateW[rowBase : rowBase+cfg.Dim]
				for k, idx := range ex.X.Idx {
					g := gl*ex.X.Val[k] + cfg.L2*row[idx]
					row[idx] += opt.Step(baseGateW+rowBase+idx, g)
				}
				m.gateB[e] += opt.Step(baseGateB+e, gl)
			}

			// Expert parameter updates (ReLU-gated, sparse in the input).
			for e := 0; e < cfg.Experts; e++ {
				for h := 0; h < cfg.Hidden; h++ {
					if st.hidden[e*cfg.Hidden+h] <= 0 {
						continue
					}
					gh := gHidden[e*cfg.Hidden+h]
					if gh == 0 {
						continue
					}
					rowBase := (e*cfg.Hidden + h) * cfg.Dim
					row := m.expertW1[rowBase : rowBase+cfg.Dim]
					for k, idx := range ex.X.Idx {
						g := gh*ex.X.Val[k] + cfg.L2*row[idx]
						row[idx] += opt.Step(baseExpertW1+rowBase+idx, g)
					}
					m.expertB1[e*cfg.Hidden+h] += opt.Step(baseExpertB1+e*cfg.Hidden+h, gh)
				}
			}
		}

		// Validation checkpointing.
		if len(val) > 0 {
			loss := 0.0
			for _, ex := range val {
				m.forward(ex.X, st)
				loss += mlcore.LogLoss(st.prob, ex.Y)
			}
			if loss < bestLoss {
				bestLoss = loss
				best = m.snapshot()
			}
		}
	}
	if best != nil {
		m.restore(best)
	}
}

// snapshot captures all trainable parameters.
type snapshot struct {
	gateW, gateB, expertW1, expertB1, headW []float64
	headB                                   float64
}

func (m *Model) snapshot() *snapshot {
	return &snapshot{
		gateW:    append([]float64(nil), m.gateW...),
		gateB:    append([]float64(nil), m.gateB...),
		expertW1: append([]float64(nil), m.expertW1...),
		expertB1: append([]float64(nil), m.expertB1...),
		headW:    append([]float64(nil), m.headW...),
		headB:    m.headB,
	}
}

func (m *Model) restore(s *snapshot) {
	copy(m.gateW, s.gateW)
	copy(m.gateB, s.gateB)
	copy(m.expertW1, s.expertW1)
	copy(m.expertB1, s.expertB1)
	copy(m.headW, s.headW)
	m.headB = s.headB
}

func softmax(logits, out []float64) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}
