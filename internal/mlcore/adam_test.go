package mlcore

import (
	"math"
	"testing"
)

// TestBiasCorrectionTableExact checks every lookup against math.Pow bit
// for bit, far past the end of both tables, and pins where the tables end.
// A toolchain whose math.Pow rounds differently fails here rather than
// silently changing trained weights.
func TestBiasCorrectionTableExact(t *testing.T) {
	for _, c := range []struct {
		beta     float64
		tab      []float64
		saturate int
	}{
		{adamBeta1, bc1Table, 356},
		{adamBeta2, bc2Table, 37412},
	} {
		if len(c.tab) != c.saturate {
			t.Errorf("β=%v: table has %d entries, want %d", c.beta, len(c.tab), c.saturate)
		}
		if got := 1 - math.Pow(c.beta, float64(c.saturate-1)); got == 1 {
			t.Errorf("β=%v: 1-β^%d already rounds to 1", c.beta, c.saturate-1)
		}
		if got := 1 - math.Pow(c.beta, float64(c.saturate)); got != 1 {
			t.Errorf("β=%v: 1-β^%d = %v, want exactly 1", c.beta, c.saturate, got)
		}
		for step := 1; step <= 1<<20; step++ {
			want := 1 - math.Pow(c.beta, float64(step))
			if got := biasCorrection(c.tab, step); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("β=%v t=%d: lookup %v, math.Pow gives %v", c.beta, step, got, want)
			}
		}
	}
}

// TestAdamStepMatchesPowFormula checks Step against the textbook update
// computed with math.Pow, bit for bit, across both saturation points.
func TestAdamStepMatchesPowFormula(t *testing.T) {
	const lr = 0.01
	opt := NewAdam(1, lr)
	var m, v float64
	for step := 1; step <= 40000; step++ {
		g := math.Sin(float64(step)) * 0.3
		m = 0.9*m + 0.1*g
		v = 0.999*v + 0.001*g*g
		bc1 := 1 - math.Pow(0.9, float64(step))
		bc2 := 1 - math.Pow(0.999, float64(step))
		want := -lr * (m / bc1) / (math.Sqrt(v/bc2) + 1e-8)
		if got := opt.Step(0, g); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("t=%d: Step = %v, want %v", step, got, want)
		}
	}
}

func TestAdamStepZeroAlloc(t *testing.T) {
	opt := NewAdam(64, 0.01)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		opt.Step(i%64, 0.5)
		i++
	}); n != 0 {
		t.Fatalf("Step allocates %v times per call", n)
	}
}

var adamSink float64

// BenchmarkAdamStep measures one lazy Adam update over a 4,096-parameter
// state, cycling through the parameters so timesteps stay in the range
// the study's trainers reach.
func BenchmarkAdamStep(b *testing.B) {
	const n = 1 << 12
	opt := NewAdam(n, 0.01)
	var grads [64]float64
	for i := range grads {
		grads[i] = math.Sin(float64(i)) * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += opt.Step(i&(n-1), grads[i&63])
	}
	adamSink = s
}
