package moe

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/mlcore"
	"repro/internal/stats"
)

// weightHash returns an FNV-64a hash over the IEEE-754 bits of every
// trainable parameter, in a fixed order.
func (m *Model) weightHash() uint64 {
	h := fnv.New64a()
	for _, p := range [][]float64{m.gateW, m.gateB, m.expertW1, m.expertB1, m.headW, {m.headB}} {
		binary.Write(h, binary.LittleEndian, p)
	}
	return h.Sum64()
}

// sparseData is a small synthetic sparse problem whose examples touch a
// handful of input indices each, so per-parameter optimizer timesteps
// diverge across parameters.
func sparseData(n, dim, nnz int, rng *stats.RNG) []mlcore.Example {
	out := make([]mlcore.Example, n)
	for i := range out {
		var x mlcore.SparseVec
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
		out[i] = mlcore.Example{X: x, Y: y, Weight: float64(1 + i%2)}
	}
	return out
}

// trainGolden trains the model the golden test pins: 450 training
// examples × 90 epochs, so the head bias (updated on every step) runs past
// both bias-correction saturation points.
func trainGolden() *Model {
	rng := stats.NewRNG(47)
	m := New(Config{Dim: 40, Experts: 3, Hidden: 4, Epochs: 90, LearnRate: 0.01, L2: 1e-5}, rng.Split("init"))
	m.Train(sparseData(500, 40, 5, rng.Split("data")), rng.Split("train"))
	return m
}

func TestGoldenMoEWeights(t *testing.T) {
	const want = uint64(0x4ea18099db185fac)
	if got := trainGolden().weightHash(); got != want {
		t.Fatalf("trained MoE weight hash = %#x, want %#x", got, want)
	}
}

// TestConcurrentTrainingMatchesSolo trains two models from the same seed
// at once and checks each is bit-identical to one trained on its own: the
// optimizer's shared bias-correction table must be read-only.
func TestConcurrentTrainingMatchesSolo(t *testing.T) {
	train := func() uint64 {
		rng := stats.NewRNG(53)
		m := New(Config{Dim: 40, Experts: 3, Hidden: 4, Epochs: 6, LearnRate: 0.01, L2: 1e-5}, rng.Split("init"))
		m.Train(sparseData(200, 40, 5, rng.Split("data")), rng.Split("train"))
		return m.weightHash()
	}
	solo := train()
	var got [2]uint64
	done := make(chan struct{})
	for i := range got {
		go func() {
			defer func() { done <- struct{}{} }()
			got[i] = train()
		}()
	}
	for range got {
		<-done
	}
	for i, h := range got {
		if h != solo {
			t.Fatalf("concurrent run %d weight hash = %#x, solo = %#x", i, h, solo)
		}
	}
}
