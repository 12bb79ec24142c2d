package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/datasets"
	"repro/internal/dedup"
	"repro/internal/obs"
)

// dedupRecords is the corpus size of the dedup-100k workload.
const dedupRecords = 100000

// Floors every dedup-100k run must clear, pinned or not: the block
// recall and cluster F1 measured at seed 1 (0.9999 and 0.9927), rounded
// down.
const (
	dedupRecallFloor = 0.999
	dedupF1Floor     = 0.99
)

type dedupInstance struct {
	cfg dedup.Config
	// corpus is the benchmark's own copy of the generated input, the
	// reference the clusters are checked against.
	corpus *datasets.DedupCorpus
	tr     *tracing
}

func setupDedup(seed uint64, tr *tracing) (instance, error) {
	cfg := dedup.DefaultConfig()
	cfg.N = dedupRecords
	cfg.Seed = seed
	cfg.Parallel = 2
	return &dedupInstance{cfg: cfg, corpus: cfg.Corpus(), tr: tr}, nil
}

func (x *dedupInstance) close() {}

// run makes one dedup.Run pass, the one operation. A pass is about as
// long as --seconds, and a second one would start with the process-wide
// text caches warm, so d is not used.
func (x *dedupInstance) run(time.Duration) (phase, error) {
	ctx := context.Background()
	if x.tr != nil {
		ctx = obs.WithTracer(ctx, x.tr.tracer)
	}
	t0 := time.Now()
	res, err := dedup.Run(ctx, x.cfg)
	took := time.Since(t0)
	if err != nil {
		return phase{}, err
	}
	p := phase{runS: took.Seconds(), attempted: 1}
	if err := x.check(res); err != nil {
		fmt.Fprintf(os.Stderr, "embench: dedup-100k: %v\n", err)
		p.failed++
	} else {
		p.perSec = ratio(float64(res.Records), p.runS)
		p.batchLatencies([]time.Duration{took})
	}
	if x.tr != nil {
		layers := x.tr.layers
		recs := x.tr.tracer.Records()
		probe := foldSpans(recs, "dedup.probe", "candidates")
		verifies := foldSpans(recs, "dedup.probe", "verifies").attr
		layers["dedup.ingest_s"] = foldSpans(recs, "dedup.ingest", "").totalS
		layers["lsh.build_s"] = foldSpans(recs, "dedup.build", "").totalS
		layers["lsh.probe_s"] = probe.totalS
		layers["lsh.candidates"] = float64(probe.attr)
		layers["lsh.verifies_per_candidate"] = ratio(float64(verifies), float64(probe.attr))
		layers["dedup.match_s"] = foldSpans(recs, "dedup.match", "").totalS
		layers["cluster.resolve_s"] = foldSpans(recs, "dedup.cluster", "").totalS
	}
	return p, nil
}

// check verifies one dedup result against the benchmark's own copy of
// the corpus: the clusters must partition the records, the pairwise F1
// recomputed here must agree with the reported one, recall and F1 must
// clear their floors, and a pinned seed must reproduce its pin exactly.
func (x *dedupInstance) check(res *dedup.Result) error {
	seen := make(map[string]bool, len(x.corpus.Records))
	for _, c := range res.Clusters {
		for _, id := range c.Members {
			if seen[id] {
				return fmt.Errorf("record %s in two clusters", id)
			}
			if _, ok := x.corpus.Truth[id]; !ok {
				return fmt.Errorf("cluster member %s is not a corpus record", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(x.corpus.Records) {
		return fmt.Errorf("clusters cover %d of %d records", len(seen), len(x.corpus.Records))
	}
	f1 := x.pairwiseF1(res)
	if math.Abs(f1-res.Metrics.F1) > 1e-9 {
		return fmt.Errorf("reported cluster F1 %v, recomputed %v", res.Metrics.F1, f1)
	}
	if res.BlockRecall < dedupRecallFloor || f1 < dedupF1Floor {
		return fmt.Errorf("block recall %v, cluster F1 %v: below the floors %v, %v", res.BlockRecall, f1, dedupRecallFloor, dedupF1Floor)
	}
	got := dedupPin{edges: res.Edges, recall: res.BlockRecall, f1: f1}
	want, ok := dedupPins[x.cfg.Seed]
	if !ok || x.cfg.N != dedupRecords {
		fmt.Fprintf(os.Stderr, "embench: dedup-100k: no pin: %d: {edges: %d, recall: %v, f1: %v},\n",
			x.cfg.Seed, got.edges, got.recall, got.f1)
		return nil
	}
	if got.edges != want.edges || math.Abs(got.recall-want.recall) > 1e-12 || math.Abs(got.f1-want.f1) > 1e-12 {
		return fmt.Errorf("seed %d: got %+v, pinned %+v", x.cfg.Seed, got, want)
	}
	return nil
}

// pairwiseF1 scores the clusters' co-clustered record pairs against the
// corpus's entity assignment.
func (x *dedupInstance) pairwiseF1(res *dedup.Result) float64 {
	var tp, predicted float64
	for _, c := range res.Clusters {
		for i := range c.Members {
			for j := i + 1; j < len(c.Members); j++ {
				predicted++
				if x.corpus.Truth[c.Members[i]] == x.corpus.Truth[c.Members[j]] {
					tp++
				}
			}
		}
	}
	sizes := make(map[string]float64)
	for _, e := range x.corpus.Truth {
		sizes[e]++
	}
	var actual float64
	for _, n := range sizes {
		actual += n * (n - 1) / 2
	}
	prec, rec := ratio(tp, predicted), ratio(tp, actual)
	return ratio(2*prec*rec, prec+rec)
}
