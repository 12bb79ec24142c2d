package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/textsim"
	"repro/internal/wire"
)

// serveCacheCapacity is emserve's default prediction-cache size. It is
// set explicitly because serve.Config's zero value disables the cache,
// which would silently put every replica on the miss path.
const serveCacheCapacity = 65536

// trainSeed is the matcher training seed, emserve's and emfleet's
// default; the workload seed shapes the traffic, not the model.
const trainSeed = 1

// generate builds the study's eleven labelled datasets, timing the
// datasets layer when traced.
func generate(tr *tracing) []*record.Dataset {
	t0 := time.Now()
	all := datasets.GenerateAllParallel(eval.DatasetSeed, 2)
	if tr != nil {
		tr.layers["datasets.generate_s"] = time.Since(t0).Seconds()
	}
	return all
}

// shuffledPairs returns every labelled pair of the datasets, shuffled by
// seed.
func shuffledPairs(all []*record.Dataset, seed uint64) []record.Pair {
	var out []record.Pair
	for _, d := range all {
		for _, lp := range d.Pairs {
			out = append(out, lp.Pair)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// callerRNGs gives each closed-loop caller its own seeded stream.
func callerRNGs(seed uint64) [callers]*rand.Rand {
	var out [callers]*rand.Rand
	for c := range out {
		out[c] = rand.New(rand.NewSource(int64(seed)*1000 + int64(c) + 1))
	}
	return out
}

// replica is one serve.Server listening on loopback.
type replica struct {
	srv *serve.Server
	ln  *listener
}

// startReplica serves m under its registry name with the prediction cache
// on. A traced replica gets the program's tracer and a timed handler.
func startReplica(m matchers.Matcher, name string, tr *tracing) (*replica, error) {
	cfg := serve.Config{MatcherName: name, CacheCapacity: serveCacheCapacity}
	if tr != nil {
		cfg.Tracer = tr.tracer
	}
	srv, err := serve.New(m, cfg)
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = &timedHandler{next: h, calls: &tr.handler}
	}
	ln, err := listen(h)
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	return &replica{srv: srv, ln: ln}, nil
}

func (r *replica) close() {
	r.ln.close()
	r.srv.Shutdown()
}

// serveLayers reports the serve layer over the replicas' stats taken
// before (st0) and after (st1) the timed phase, the handler calls and
// the spans the servers recorded from phase start t on.
func serveLayers(tr *tracing, t int64, st0, st1 []serve.Stats) {
	layers := tr.layers
	var hits, misses, shed, deadline, batches, batchPairs float64
	for i := range st0 {
		a, b := st0[i], st1[i]
		hits += float64(b.CacheHits - a.CacheHits)
		misses += float64(b.CacheMisses - a.CacheMisses)
		shed += float64(b.ShedQueueFull + b.ShedDraining + b.ShedSLO - a.ShedQueueFull - a.ShedDraining - a.ShedSLO)
		deadline += float64(b.DeadlineExceeded - a.DeadlineExceeded)
		for size := 1; size < len(b.BatchSizes); size++ {
			n := b.BatchSizes[size]
			if size < len(a.BatchSizes) {
				n -= a.BatchSizes[size]
			}
			batches += float64(n)
			batchPairs += float64(n) * float64(size)
		}
	}
	recs := tr.spansFrom(t)
	score := foldSpans(recs, "score", "")
	scored := foldSpans(recs, "batch", "pairs").attr
	layers["serve.handler_us_p50"] = tr.handler.quantileUs(0.50)
	layers["serve.handler_us_p99"] = tr.handler.quantileUs(0.99)
	layers["serve.queue_wait_us_p50"] = quantile(foldSpans(recs, "queue", "").us, 0.50)
	layers["serve.batch_pairs_mean"] = ratio(batchPairs, batches)
	layers["serve.score_us_per_pair"] = ratio(score.totalS*1e6, float64(scored))
	layers["serve.cache_hit_rate"] = ratio(hits, hits+misses)
	layers["serve.shed"] = shed
	layers["serve.deadline_exceeded"] = deadline
}

func statsOf(rs []*replica) []serve.Stats {
	out := make([]serve.Stats, len(rs))
	for i, r := range rs {
		out[i] = r.srv.Stats()
	}
	return out
}

// serveFresh is the serve-fresh workload: AnyMatch [GPT-2] behind one
// server, fed pairs it has never seen.
type serveFresh struct {
	m    matchers.Matcher
	rep  *replica
	pool []record.Pair // every labelled pair, in the seed's order
	// sampled marks the pool pairs whose served answers are re-predicted
	// offline after the timed phase.
	sampled []bool
	rngs    [callers]*rand.Rand
	tr      *tracing
}

// serveFreshSampleEvery sets the share of served pairs checked offline
// (1 in 16): enough to catch a wrong code path, cheap next to the run.
const serveFreshSampleEvery = 16

func setupServeFresh(seed uint64, tr *tracing) (instance, error) {
	all := generate(tr)
	m := matchers.NewAnyMatchGPT2()
	t0 := time.Now()
	m.Train(all, stats.NewRNG(trainSeed).Split("train"))
	if tr != nil {
		tr.layers["matchers.train_s.anymatch_gpt2"] = time.Since(t0).Seconds()
	}
	x := &serveFresh{m: m, pool: shuffledPairs(all, seed), rngs: callerRNGs(seed), tr: tr}
	pick := rand.New(rand.NewSource(int64(seed) + 7))
	x.sampled = make([]bool, len(x.pool))
	for i := range x.sampled {
		x.sampled[i] = pick.Intn(serveFreshSampleEvery) == 0
	}
	rep, err := startReplica(m, "anymatch-gpt2", tr)
	if err != nil {
		return nil, err
	}
	x.rep = rep
	return x, nil
}

func (x *serveFresh) close() { x.rep.close() }

// run sends requests of 1–16 pairs taken in order from the shuffled
// pool, so no pair is sent twice, until d has elapsed or the pool is
// spent.
func (x *serveFresh) run(d time.Duration) (phase, error) {
	var t int64
	if x.tr != nil {
		t = x.tr.startPhase()
	}
	st0 := statsOf([]*replica{x.rep})
	prof0h, prof0m := textsim.Shared().Stats()
	var (
		cursor atomic.Int64
		reqID  atomic.Int64
		// served holds each sampled pair's answer (1 match, 2 no match)
		// and reqOf the request that carried it. Each slot has one
		// writer, read after the loop.
		served = make([]int8, len(x.pool))
		reqOf  = make([]int64, len(x.pool))
	)
	next := func(c int) (loadRequest, bool) {
		n := 1 + x.rngs[c].Intn(16)
		end := int(cursor.Add(int64(n)))
		start := end - n
		if end > len(x.pool) {
			return loadRequest{}, false
		}
		id := reqID.Add(1)
		return loadRequest{
			frame: wire.AppendRequest(nil, x.pool[start:end], 0),
			pairs: n,
			check: func(preds []bool) bool {
				for j, p := range preds {
					if i := start + j; x.sampled[i] {
						served[i] = 2
						if p {
							served[i] = 1
						}
						reqOf[i] = id
					}
				}
				return true
			},
		}, true
	}
	lr := closedLoop(x.rep.ln.url, d, next)
	st1 := statsOf([]*replica{x.rep})
	prof1h, prof1m := textsim.Shared().Stats()

	p := lr.phase()
	p.failed += int64(len(wrongAnswers(x.m, x.pool, served, reqOf)))
	if x.tr != nil {
		serveLayers(x.tr, t, st0, st1)
		x.tr.layers["textsim.profile_hit_rate"] = hitRate(prof1h-prof0h, prof1m-prof0m)
	}
	return p, nil
}

// wrongAnswers re-predicts the served sample offline, with the matcher
// the server holds and the server's serialization options, and returns
// the requests that carried a different answer, each once.
func wrongAnswers(m matchers.Matcher, pool []record.Pair, served []int8, reqOf []int64) []int64 {
	var idx []int
	var pairs []record.Pair
	for i, s := range served {
		if s != 0 {
			idx = append(idx, i)
			pairs = append(pairs, pool[i])
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	want := m.Predict(matchers.Task{Pairs: pairs, Opts: serve.CanonicalKeyOptions(nil)})
	seen := make(map[int64]bool)
	var out []int64
	for k, i := range idx {
		if want[k] != (served[i] == 1) && !seen[reqOf[i]] {
			seen[reqOf[i]] = true
			out = append(out, reqOf[i])
		}
	}
	return out
}

// fleetWorkingSet is the number of distinct pairs fleet-hot cycles
// through; far below the replicas' cache capacity, so after warm-up
// every pair is a hit.
const fleetWorkingSet = 4096

// fleetRequestSizes are the request sizes fleet-hot draws from: single
// pairs always have one owner, 64-pair batches fan out to both replicas.
var fleetRequestSizes = []int{1, 8, 64}

// fleetHot is the fleet-hot workload: a fleet.Front over two StringSim
// replicas answering a working set they have cached.
type fleetHot struct {
	replicas []*replica
	front    *fleet.Front
	ln       *listener
	ws       []record.Pair
	ref      []bool // offline StringSim answers for ws
	rngs     [callers]*rand.Rand
	tr       *tracing
	// warmFailed counts warm-up requests answered wrongly or not at all.
	warmAttempted, warmFailed int64
}

func setupFleetHot(seed uint64, tr *tracing) (instance, error) {
	all := generate(tr)
	x := &fleetHot{ws: shuffledPairs(all, seed)[:fleetWorkingSet], rngs: callerRNGs(seed), tr: tr}
	ok := false
	defer func() {
		if !ok {
			x.close()
		}
	}()
	newStringSim := func() matchers.Matcher {
		m := matchers.NewStringSim()
		m.Train(nil, stats.NewRNG(trainSeed).Split("train"))
		return m
	}
	x.ref = newStringSim().Predict(matchers.Task{Pairs: x.ws, Opts: serve.CanonicalKeyOptions(nil)})
	fc := fleet.Config{MatcherName: "stringsim", ProbeInterval: 500 * time.Millisecond}
	if tr != nil {
		fc.Transport = &timedTransport{inner: fleet.NewHTTPTransport(0), calls: &tr.transport}
	}
	front, err := fleet.New(fc)
	if err != nil {
		return nil, err
	}
	x.front = front
	for i := 0; i < 2; i++ {
		rep, err := startReplica(newStringSim(), "stringsim", tr)
		if err != nil {
			return nil, err
		}
		x.replicas = append(x.replicas, rep)
		if err := front.AddReplica(fmt.Sprintf("r%d", i+1), rep.ln.url); err != nil {
			return nil, err
		}
	}
	var h http.Handler = front.Handler()
	if tr != nil {
		h = &timedHandler{next: h, calls: &tr.front, self: &tr.frontSelf}
	}
	if x.ln, err = listen(h); err != nil {
		return nil, err
	}
	cl := newWireClient(x.ln.url)
	defer cl.close()
	idx := make([]int, 64)
	for i := 0; i < len(x.ws); i += len(idx) {
		for j := range idx {
			idx[j] = i + j
		}
		x.warmAttempted++
		preds, err := cl.match(wire.AppendRequest(nil, x.ws[i:i+len(idx)], 0))
		if err != nil || !x.matchesRef(preds, idx) {
			x.warmFailed++
		}
	}
	ok = true
	return x, nil
}

// matchesRef reports whether preds[j] is the reference answer for
// working-set pair idx[j], for every j.
func (x *fleetHot) matchesRef(preds []bool, idx []int) bool {
	for j, p := range preds {
		if p != x.ref[idx[j]] {
			return false
		}
	}
	return true
}

func (x *fleetHot) close() {
	if x.ln != nil {
		x.ln.close()
	}
	if x.front != nil {
		x.front.Close()
	}
	for _, r := range x.replicas {
		r.close()
	}
}

// run sends requests of 1, 8 or 64 working-set pairs, drawn uniformly,
// through the front until d has elapsed. Every answer is checked
// against the offline reference.
func (x *fleetHot) run(d time.Duration) (phase, error) {
	var t int64
	if x.tr != nil {
		t = x.tr.startPhase()
	}
	ctx := context.Background()
	st0 := statsOf(x.replicas)
	fs0 := x.front.Stats(ctx).Fleet
	prof0h, prof0m := textsim.Shared().Stats()
	next := func(c int) (loadRequest, bool) {
		rng := x.rngs[c]
		n := fleetRequestSizes[rng.Intn(len(fleetRequestSizes))]
		idx := make([]int, n)
		pairs := make([]record.Pair, n)
		for j := range idx {
			idx[j] = rng.Intn(len(x.ws))
			pairs[j] = x.ws[idx[j]]
		}
		return loadRequest{
			frame: wire.AppendRequest(nil, pairs, 0),
			pairs: n,
			check: func(preds []bool) bool { return x.matchesRef(preds, idx) },
		}, true
	}
	lr := closedLoop(x.ln.url, d, next)
	st1 := statsOf(x.replicas)
	fs1 := x.front.Stats(ctx).Fleet
	prof1h, prof1m := textsim.Shared().Stats()
	p := lr.phase()
	p.attempted += x.warmAttempted
	p.failed += x.warmFailed
	if x.tr != nil {
		layers := x.tr.layers
		serveLayers(x.tr, t, st0, st1)
		layers["textsim.profile_hit_rate"] = hitRate(prof1h-prof0h, prof1m-prof0m)
		requests := float64(fs1.Requests - fs0.Requests)
		fanouts := float64(fs1.Fanouts - fs0.Fanouts)
		hedges := float64(fs1.Hedges - fs0.Hedges)
		layers["fleet.front_us_p50"] = x.tr.front.quantileUs(0.50)
		layers["fleet.front_self_us_p50"] = x.tr.frontSelf.quantileUs(0.50)
		layers["fleet.transport_us_p50"] = x.tr.transport.quantileUs(0.50)
		layers["fleet.transport_us_p99"] = x.tr.transport.quantileUs(0.99)
		layers["fleet.fanouts_per_request"] = ratio(fanouts, requests)
		layers["fleet.hedges_per_fanout"] = ratio(hedges, fanouts)
		layers["fleet.hedge_win_frac"] = ratio(float64(fs1.HedgeWins-fs0.HedgeWins), hedges)
		layers["fleet.failovers"] = float64(fs1.Failovers - fs0.Failovers)
	}
	return p, nil
}
