// Command embench is the repository's end-to-end benchmark. It runs one
// named workload against the code in this checkout, checks every answer
// against a reference, and prints one JSON result as the last line of
// its standard output:
//
//	bash embench/run.sh --workload fleet-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no tracing installed. With --trace 1 the result holds the per-layer
// metrics of a traced run, plus the tracing overhead against an untraced
// run of the same workload in a child process.
// README.md lists the workloads, the metrics and why each was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times an untraced run builds its workload: the
// reported setup_s is the median, the last build is the one measured.
const setupRuns = 3

// setupFunc builds everything a workload needs before its first timed
// operation, from the seed. tr is nil for an untraced build.
type setupFunc func(seed uint64, tr *tracing) (instance, error)

// instance is one built workload.
type instance interface {
	// run executes the timed phase, for about d in a closed loop and one
	// whole pass in a batch job, and checks its answers.
	// An instance built traced also reports its layers into tr.layers.
	run(d time.Duration) (phase, error)
	close()
}

// phase is what one timed phase measured.
type phase struct {
	runS float64 // wall time of the timed work
	// perSec is how many pairs (records, for dedup) were answered
	// correctly per second of timed work.
	perSec float64
	// p50Ms and p99Ms are operation latencies; samples is how many
	// operations they summarize.
	p50Ms, p99Ms      float64
	samples           int
	attempted, failed int64
}

// batchLatencies summarizes the latencies of a batch job's operations.
// The p50 is the textbook median, the mean of the two middle operations
// when their count is even, so that on lodo-abt's six calls it does not
// rest on one half-second call alone.
func (p *phase) batchLatencies(lat []time.Duration) {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	p.p50Ms, p.p99Ms, p.samples = quantile(ms, 0.50), quantile(ms, 0.99), len(ms)
	if n := len(ms); n > 0 && n%2 == 0 {
		p.p50Ms = (ms[n/2-1] + ms[n/2]) / 2
	}
}

var workloads = map[string]setupFunc{
	"lodo-abt":    setupLODO,
	"serve-fresh": setupServeFresh,
	"fleet-hot":   setupFleetHot,
	"dedup-100k":  setupDedup,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, in the shape the benchmark driver
// reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("embench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	commit := fs.String("commit", "unknown", "source revision stamped on the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "embench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	var (
		res  result
		info map[string]any
		err  error
	)
	if *trace == 1 {
		res, info, err = measureLayers(*name, setup, *seed, d)
	} else {
		res, info, err = measureEndToEnd(setup, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "embench: %s: %v\n", *name, err)
		return 1
	}
	info["stamp"] = stamp(*name, *seed, *trace, *commit)
	summarize(os.Stderr, *name, *seed, res)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measureEndToEnd builds the workload setupRuns times, then runs the
// timed phase on the last build with nothing traced.
func measureEndToEnd(setup setupFunc, seed uint64, d time.Duration) (result, map[string]any, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			// Free the previous build and hand its memory back to the
			// OS now, so that peak_rss_mb does not depend on when the
			// runtime would have returned it.
			inst.close()
			inst = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(seed, nil); err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	p, err := inst.run(d)
	if err != nil {
		return result{}, nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	vals := map[string]float64{
		"setup_s":        median(setups),
		"run_s":          p.runS,
		"pairs_per_s":    p.perSec,
		"latency_p50_ms": p.p50Ms,
		"latency_p99_ms": p.p99Ms,
		"peak_rss_mb":    rss,
	}
	info := map[string]any{"setup_s_samples": setups, "latency_samples": p.samples}
	return assemble(endToEnd, vals, p.attempted, p.failed), info, nil
}

// measureLayers runs the workload traced and reports its layers. The
// untraced reference for trace.overhead_frac runs first, in a child
// process of its own: the program keeps process-wide caches (text
// profiles, language-model value caches) that no public API resets, so
// a second run in the same process would start warm and skew the
// comparison. The Go runtime figures cover the traced phase, whose
// tracer allocates little next to the workload.
func measureLayers(name string, setup setupFunc, seed uint64, d time.Duration) (result, map[string]any, error) {
	ref, err := untracedReference(name, seed, d)
	if err != nil {
		return result{}, nil, fmt.Errorf("untraced reference: %w", err)
	}
	tr := newTracing()
	inst, err := setup(seed, tr)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	before := readRuntime()
	p, err := inst.run(d)
	if err != nil {
		return result{}, nil, err
	}
	runtimeLayers(before, readRuntime(), tr.layers)
	untraced := ref.Metrics["pairs_per_s"].Value
	tr.layers["trace.overhead_frac"] = ratio(untraced, p.perSec) - 1
	info := map[string]any{
		"untraced_items_per_s": untraced,
		"traced_items_per_s":   p.perSec,
		"spans":                tr.tracer.Len(),
	}
	return assemble(perLayer, tr.layers, ref.Attempted+p.attempted, ref.Failed+p.failed), info, nil
}

// untracedReference runs the workload untraced in a fresh process of
// this program and returns its result.
func untracedReference(name string, seed uint64, d time.Duration) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(d.Seconds(), 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, err
	}
	return res, nil
}

// assemble builds the result over every metric of defs; a layer the
// workload did not exercise reports 0.
func assemble(defs []metricDef, vals map[string]float64, attempted, failed int64) result {
	res := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

// summarize prints the result for a reader: every metric by name and
// unit, and the operations attempted and failed.
func summarize(out io.Writer, name string, seed uint64, res result) {
	fmt.Fprintf(out, "%s (seed %d): %d operations attempted, %d failed, correct %v\n", name, seed, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// stamp records what produced a result, so results from different
// machines or revisions are never compared unawares.
func stamp(name string, seed uint64, trace int, commit string) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuInfo("model name"),
		"cpu_mhz":    cpuInfo("cpu MHz"),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// cpuInfo returns the first value of key in /proc/cpuinfo. The clock
// matters as much as the model: earlier archives came from two CPUs
// with the same model name at different clocks.
func cpuInfo(key string) string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
