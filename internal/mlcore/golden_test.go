package mlcore

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/stats"
)

// weightHash returns an FNV-64a hash over the IEEE-754 bits of every
// value in the given slices, in order. Golden tests compare it against a
// recorded value, so any change to the training arithmetic — even in the
// last bit of one weight — fails them.
func weightHash(parts ...[]float64) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		binary.Write(h, binary.LittleEndian, p)
	}
	return h.Sum64()
}

// sparseGoldenData is a small synthetic sparse problem: each example
// carries a handful of hashed-looking indices, so per-parameter timesteps
// in the optimizer diverge across parameters.
func sparseGoldenData(n, dim, nnz int, rng *stats.RNG) []Example {
	out := make([]Example, n)
	for i := range out {
		var x SparseVec
		s := 0.0
		for k := 0; k < nnz; k++ {
			v := rng.Float64()*2 - 1
			idx := rng.Intn(dim)
			x.Add(idx, v)
			if idx%3 == 0 {
				s += v
			}
		}
		y := 0.0
		if s > 0 {
			y = 1
		}
		out[i] = Example{X: x, Y: y, Weight: float64(1 + i%2)}
	}
	return out
}

// TestGoldenMLPWeights trains long enough (450 examples × 90 epochs) that
// the output bias, updated on every step, runs past both bias-correction
// saturation points.
func TestGoldenMLPWeights(t *testing.T) {
	rng := stats.NewRNG(41)
	m := NewMLP(MLPConfig{Dim: 48, Hidden: 4, Epochs: 90, LearnRate: 0.01, L2: 1e-5}, rng.Split("init"))
	m.Train(sparseGoldenData(500, 48, 5, rng.Split("data")), rng.Split("train"))
	const want = uint64(0xc1497c35da6d61a4)
	if got := weightHash(m.W1, m.B1, m.W2, []float64{m.B2}); got != want {
		t.Fatalf("trained MLP weight hash = %#x, want %#x", got, want)
	}
}

// TestGoldenLogRegWeights trains long enough (50,000 steps) that the
// global timestep runs past both bias-correction saturation points.
func TestGoldenLogRegWeights(t *testing.T) {
	rng := stats.NewRNG(43)
	data := sparseGoldenData(250, 32, 4, rng.Split("data"))
	m := TrainLogReg(data, LogRegConfig{Dim: 32, Epochs: 200, LearnRate: 0.02, L2: 1e-4}, rng.Split("opt"))
	const want = uint64(0x80663d95348a220d)
	if got := weightHash(m.W, []float64{m.Bias}); got != want {
		t.Fatalf("trained LogReg weight hash = %#x, want %#x", got, want)
	}
}
