package main

import (
	"bufio"
	"errors"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's whole vocabulary: BENCHMARK.json at the repository
// root must name exactly these (embench_test.go checks it), and every
// workload reports every metric of the list its mode prints.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"pairs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, measured in the traced run.
// A layer that does no work in a workload reports 0 there.
var perLayer = []metricDef{
	{"datasets.generate_s", "s"},
	{"eval.worker_idle_frac", "fraction"},
	{"eval.score_s", "s"},
	{"matchers.train_s.unicorn", "s"},
	{"matchers.train_s.anymatch_gpt2", "s"},
	{"matchers.train_s.ditto", "s"},
	{"matchers.predict_s.stringsim", "s"},
	{"matchers.predict_s.zeroer", "s"},
	{"matchers.predict_s.ditto", "s"},
	{"matchers.predict_s.unicorn", "s"},
	{"matchers.predict_s.anymatch_gpt2", "s"},
	{"matchers.predict_s.gpt4", "s"},
	{"textsim.profile_hit_rate", "fraction"},
	{"record.sercache_hit_rate", "fraction"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.batch_pairs_mean", "pairs"},
	{"serve.score_us_per_pair", "us"},
	{"serve.cache_hit_rate", "fraction"},
	{"serve.shed", "count"},
	{"serve.deadline_exceeded", "count"},
	{"fleet.front_us_p50", "us"},
	{"fleet.front_self_us_p50", "us"},
	{"fleet.transport_us_p50", "us"},
	{"fleet.transport_us_p99", "us"},
	{"fleet.fanouts_per_request", "count"},
	{"fleet.hedges_per_fanout", "fraction"},
	{"fleet.hedge_win_frac", "fraction"},
	{"fleet.failovers", "count"},
	{"dedup.ingest_s", "s"},
	{"lsh.build_s", "s"},
	{"lsh.probe_s", "s"},
	{"lsh.candidates", "count"},
	{"lsh.verifies_per_candidate", "count"},
	{"dedup.match_s", "s"},
	{"cluster.resolve_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// Nearest rank never invents a value between two samples, so a p99 over
// few samples is an observed latency, not an interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// durationsUs converts durations to microseconds.
func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a reading of the Go runtime's cumulative counters;
// the difference of two readings covers the work between them.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// runtimeLayers reports what the Go runtime did between two readings.
func runtimeLayers(before, after runtimeSample, into map[string]float64) {
	into["runtime.alloc_mb"] = (after.allocBytes - before.allocBytes) / (1 << 20)
	into["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
