package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/eval"
	"repro/internal/lm"
	"repro/internal/matchers"
	"repro/internal/obs"
)

// lodoTarget is the held-out dataset of the lodo-abt workload.
const lodoTarget = "ABT"

// lodoParallelism is the harness worker count: with two seeds per
// matcher, both workers run one cell of the same matcher at a time, so a
// speed-up of any matcher lands on the critical path.
const lodoParallelism = 2

// lodoMatchers are the evaluated matchers, in the order they run; key is
// the suffix of their matchers.train_s / matchers.predict_s metrics.
var lodoMatchers = []struct {
	key     string
	factory eval.MatcherFactory
}{
	{"stringsim", func() matchers.Matcher { return matchers.NewStringSim() }},
	{"zeroer", func() matchers.Matcher { return matchers.NewZeroER() }},
	{"ditto", func() matchers.Matcher { return matchers.NewDitto() }},
	{"unicorn", func() matchers.Matcher { return matchers.NewUnicorn() }},
	{"anymatch_gpt2", func() matchers.Matcher { return matchers.NewAnyMatchGPT2() }},
	{"gpt4", func() matchers.Matcher { return matchers.NewMatchGPT(lm.GPT4) }},
}

// lodoCellSeeds are the harness's repetition seeds: the study's first
// two. They are fixed rather than drawn from the workload seed because
// they set what the matchers train on, and Unicorn's call took from 25 s
// to 37 s across ten seed pairs, enough to hide any regression. The
// workload seed is stamped on the result and shapes no input here.
var lodoCellSeeds = []uint64{1, 2}

type lodoInstance struct {
	h  *eval.Harness
	tr *tracing
	// positives and negatives count the labels of the fixed ABT test
	// sample; every cell's confusion counts must add up to them.
	positives, negatives int
}

func setupLODO(_ uint64, tr *tracing) (instance, error) {
	t0 := time.Now()
	h := eval.NewHarness(eval.Config{Seeds: lodoCellSeeds, MaxTest: eval.MaxTestSamples, Parallelism: lodoParallelism})
	l := &lodoInstance{h: h, tr: tr}
	if tr != nil {
		tr.layers["datasets.generate_s"] = time.Since(t0).Seconds()
		h.SetTracer(tr.tracer)
	}
	d := h.Dataset(lodoTarget)
	if d == nil {
		return nil, fmt.Errorf("no dataset %s", lodoTarget)
	}
	for _, i := range h.TestIndices(lodoTarget) {
		if d.Pairs[i].Match {
			l.positives++
		} else {
			l.negatives++
		}
	}
	return l, nil
}

func (l *lodoInstance) close() {}

// run makes one pass: every matcher evaluated on the target, one
// EvaluateTargets call per matcher, each call one operation. A pass
// outlasts any useful --seconds, and a second one would start with the
// process-wide text caches warm, so d is not used.
func (l *lodoInstance) run(time.Duration) (phase, error) {
	var (
		p     phase
		pairs float64
		lat   []time.Duration
	)
	prof0h, prof0m := l.h.ProfileCache().Stats()
	ser0h, ser0m := l.h.SerializationCache().Stats()
	for _, m := range lodoMatchers {
		// Collect the previous call's garbage outside the timing, so no
		// call pays for the one before it.
		runtime.GC()
		t0 := time.Now()
		res, err := l.h.EvaluateTargets(m.factory, []string{lodoTarget})
		took := time.Since(t0)
		if err != nil {
			return phase{}, err
		}
		p.runS += took.Seconds()
		ok := true
		for k, conf := range res[0].Confusions {
			p.attempted++
			if err := l.checkCell(m.key, lodoCellSeeds[k], conf); err != nil {
				fmt.Fprintf(os.Stderr, "embench: lodo-abt: %v\n", err)
				p.failed++
				ok = false
				continue
			}
			pairs += float64(conf.TP + conf.FP + conf.TN + conf.FN)
		}
		if ok {
			lat = append(lat, took)
		}
	}
	p.batchLatencies(lat)
	p.perSec = ratio(pairs, p.runS)
	if l.tr != nil {
		prof1h, prof1m := l.h.ProfileCache().Stats()
		ser1h, ser1m := l.h.SerializationCache().Stats()
		l.tr.layers["textsim.profile_hit_rate"] = hitRate(prof1h-prof0h, prof1m-prof0m)
		l.tr.layers["record.sercache_hit_rate"] = hitRate(ser1h-ser0h, ser1m-ser0m)
		l.cellLayers(l.tr.tracer.Records(), p.runS, l.tr.layers)
	}
	return p, nil
}

// checkCell compares one cell's confusion counts with the pinned counts
// for its seed.
func (l *lodoInstance) checkCell(key string, seed uint64, c eval.Confusion) error {
	if c.TP+c.FN != l.positives || c.FP+c.TN != l.negatives {
		return fmt.Errorf("%s seed %d: confusion %+v does not cover the %d positives and %d negatives of the test sample",
			key, seed, c, l.positives, l.negatives)
	}
	if want, ok := lodoPins[lodoCell{seed, key}]; !ok || c != want {
		return fmt.Errorf("%s seed %d: confusion %+v, pinned %+v", key, seed, c, want)
	}
	return nil
}

// cellLayers folds the harness's cell spans (cell → train / predict /
// score) into the eval and matchers layers. Train and predict times are
// means per cell, comparable to a one-seed cell.
func (l *lodoInstance) cellLayers(recs []obs.SpanRecord, passS float64, layers map[string]float64) {
	keyOf := make(map[string]string)
	for _, m := range lodoMatchers {
		keyOf[m.factory().Name()] = m.key
	}
	cellKey := make(map[uint64]string)
	var busy float64
	for _, r := range recs {
		if r.Name == "cell" {
			cellKey[r.ID] = keyOf[r.Str("matcher")]
			busy += float64(r.DurNS) / 1e9
		}
	}
	var score float64
	sum := make(map[string]float64)
	n := make(map[string]float64)
	for _, r := range recs {
		key, ok := cellKey[r.Parent]
		if !ok {
			continue
		}
		s := float64(r.DurNS) / 1e9
		switch r.Name {
		case "score":
			score += s
		case "train", "predict":
			sum[r.Name+"."+key] += s
			n[r.Name+"."+key]++
		}
	}
	layers["eval.worker_idle_frac"] = 1 - ratio(busy, float64(l.h.Parallelism())*passS)
	layers["eval.score_s"] = score
	for _, m := range lodoMatchers {
		layers["matchers.predict_s."+m.key] = ratio(sum["predict."+m.key], n["predict."+m.key])
		switch m.key {
		case "unicorn", "anymatch_gpt2", "ditto":
			layers["matchers.train_s."+m.key] = ratio(sum["train."+m.key], n["train."+m.key])
		}
	}
}

func hitRate(hits, misses int64) float64 {
	return ratio(float64(hits), float64(hits+misses))
}
