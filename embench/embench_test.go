package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/dedup"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/wire"
)

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json and the
// metric lists the program prints in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !reflect.DeepEqual(names, got) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, got)
	}
	for _, c := range []struct {
		list []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.list) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.list), len(c.defs))
			continue
		}
		for i, m := range c.list {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func testPairs(t *testing.T, n int) []record.Pair {
	t.Helper()
	return shuffledPairs(datasets.GenerateAllParallel(eval.DatasetSeed, 2), 1)[:n]
}

func newTestServer(t *testing.T) *serve.Server {
	t.Helper()
	srv, err := serve.New(matchers.NewStringSim(), serve.Config{MatcherName: "stringsim", CacheCapacity: serveCacheCapacity})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestTimedHandlerTransparent checks that the handler wrapper returns the
// inner handler's response unchanged: byte for byte from a deterministic
// handler, and field for field from a real server, whose frames carry
// their own elapsed time.
func TestTimedHandlerTransparent(t *testing.T) {
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentType)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte("EW\x01\x02frame"))
	})
	var calls, self callLog
	for _, wrapped := range []http.Handler{
		&timedHandler{next: stub, calls: &calls},
		&timedHandler{next: stub, calls: &calls, self: &self},
	} {
		direct, timed := post(stub, "/match", nil), post(wrapped, "/match", nil)
		if direct.Code != timed.Code || !reflect.DeepEqual(direct.Header(), timed.Header()) || !bytes.Equal(direct.Body.Bytes(), timed.Body.Bytes()) {
			t.Errorf("wrapped response %d %v %q, direct %d %v %q", timed.Code, timed.Header(), timed.Body, direct.Code, direct.Header(), direct.Body)
		}
	}
	if len(calls.durs) != 2 || len(self.durs) != 1 {
		t.Errorf("logged %d calls and %d self times, want 2 and 1", len(calls.durs), len(self.durs))
	}

	srv := newTestServer(t)
	frame := wire.AppendRequest(nil, testPairs(t, 32), 0)
	direct := post(srv.Handler(), "/match", frame)
	timed := post(&timedHandler{next: srv.Handler(), calls: &calls}, "/match", frame)
	if direct.Code != http.StatusOK || timed.Code != direct.Code || timed.Header().Get("Content-Type") != direct.Header().Get("Content-Type") {
		t.Fatalf("status %d / %d", direct.Code, timed.Code)
	}
	a, b := decodeResponse(t, direct.Body.Bytes()), decodeResponse(t, timed.Body.Bytes())
	if !reflect.DeepEqual(a.Preds, b.Preds) || a.CostUSD != b.CostUSD || a.Tokens != b.Tokens {
		t.Errorf("wrapped answers %v, direct %v", b.Preds, a.Preds)
	}
}

func decodeResponse(t *testing.T, frame []byte) *wire.Response {
	t.Helper()
	typ, payload, err := wire.ParseFrame(frame)
	if err != nil || typ != wire.TResp {
		t.Fatalf("frame type %d: %v", typ, err)
	}
	var r wire.Response
	if err := r.Decode(payload); err != nil {
		t.Fatal(err)
	}
	return &r
}

// TestTimedTransportTransparent checks that the transport wrapper returns
// what fleet.HTTPTransport returns, and links its call to the request
// that caused it.
func TestTimedTransportTransparent(t *testing.T) {
	reply := []byte("EW\x01\x02reply-bytes")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write(reply)
	}))
	defer ts.Close()
	inner := fleet.NewHTTPTransport(0)
	var calls callLog
	timed := &timedTransport{inner: inner, calls: &calls}

	ds, db, derr := inner.Match(context.Background(), ts.URL, []byte("body"))
	rt := &reqTrace{}
	start := time.Now()
	ctx := context.WithValue(context.Background(), reqTraceKey{}, rt)
	ts2, tb, terr := timed.Match(ctx, ts.URL, []byte("body"))
	end := time.Now()
	if ds != ts2 || !bytes.Equal(db, tb) || derr != nil || terr != nil {
		t.Errorf("wrapped (%d, %q, %v), direct (%d, %q, %v)", ts2, tb, terr, ds, db, derr)
	}
	if !bytes.Equal(tb, reply) {
		t.Errorf("reply %q, want %q", tb, reply)
	}
	if len(calls.durs) != 1 || rt.covered(start, end) <= 0 {
		t.Errorf("logged %d calls, linked %v", len(calls.durs), rt.covered(start, end))
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rt := &reqTrace{calls: [][2]time.Time{
		{at(10), at(30)}, // fan-out to two replicas, overlapping
		{at(20), at(40)},
		{at(60), at(70)},
		{at(90), {}}, // a losing hedge still in flight
	}}
	if got, want := rt.covered(at(0), at(100)), 50*time.Millisecond; got != want {
		t.Errorf("covered %v, want %v", got, want)
	}
}

// The tests below inject one wrong answer into each workload's check and
// expect it counted as a failed operation.

func TestWrongAnswerCountedFleetHot(t *testing.T) {
	inst, err := setupFleetHot(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := inst.(*fleetHot)
	defer x.close()
	if x.warmFailed != 0 {
		t.Fatalf("%d warm-up requests failed", x.warmFailed)
	}
	p, err := x.run(200 * time.Millisecond)
	if err != nil || p.failed != 0 || p.attempted <= x.warmAttempted {
		t.Fatalf("clean run: %+v, %v", p, err)
	}
	// Every request now asks for one pair whose reference answer is
	// flipped.
	x.ws = x.ws[:1]
	x.ref[0] = !x.ref[0]
	p, err = x.run(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != p.attempted-x.warmAttempted || p.failed == 0 || p.samples != 0 {
		t.Errorf("%d of %d requests failed, %d answered", p.failed, p.attempted-x.warmAttempted, p.samples)
	}
	if res := assemble(endToEnd, nil, p.attempted, p.failed); res.Correct {
		t.Error("a run with failed operations reported correct")
	}
}

func TestWrongAnswerCountedServeFresh(t *testing.T) {
	m := matchers.NewStringSim()
	pool := testPairs(t, 40)
	want := m.Predict(matchers.Task{Pairs: pool, Opts: serve.CanonicalKeyOptions(nil)})
	served := make([]int8, len(pool))
	reqOf := make([]int64, len(pool))
	for i, w := range want {
		served[i] = 2
		if w {
			served[i] = 1
		}
		reqOf[i] = int64(i/4 + 1)
	}
	if got := wrongAnswers(m, pool, served, reqOf); len(got) != 0 {
		t.Fatalf("correct answers flagged in requests %v", got)
	}
	served[13] = 3 - served[13]
	if got := wrongAnswers(m, pool, served, reqOf); !reflect.DeepEqual(got, []int64{4}) {
		t.Errorf("flagged requests %v, want [4]", got)
	}
}

func TestWrongAnswerCountedLODO(t *testing.T) {
	l := &lodoInstance{positives: 134, negatives: 1116}
	pinned := lodoPins[lodoCell{1, "unicorn"}]
	if err := l.checkCell("unicorn", 1, pinned); err != nil {
		t.Fatal(err)
	}
	wrong := pinned
	wrong.TP, wrong.FN = wrong.TP-1, wrong.FN+1
	if err := l.checkCell("unicorn", 1, wrong); err == nil {
		t.Error("a confusion that differs from its pin passed")
	}
	wrong = pinned
	wrong.TN++
	if err := l.checkCell("unicorn", 1, wrong); err == nil {
		t.Error("a confusion that does not cover the test sample passed")
	}
	if err := l.checkCell("unicorn", 3, pinned); err == nil {
		t.Error("a cell without a pin passed")
	}
}

func TestWrongAnswerCountedDedup(t *testing.T) {
	cfg := dedup.DefaultConfig()
	cfg.N, cfg.Seed, cfg.Parallel = 3000, 5, 2
	x := &dedupInstance{cfg: cfg, corpus: cfg.Corpus()}
	res, err := dedup.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.check(res); err != nil {
		t.Fatal(err)
	}
	// Move one record into the first cluster of a different entity.
	from := -1
	for i, c := range res.Clusters {
		if i > 0 && len(c.Members) > 1 && x.corpus.Truth[c.Members[0]] != x.corpus.Truth[res.Clusters[0].Members[0]] {
			from = i
			break
		}
	}
	if from < 0 {
		t.Fatal("no second multi-record cluster")
	}
	moved := res.Clusters[from].Members[0]
	res.Clusters[from].Members = res.Clusters[from].Members[1:]
	res.Clusters[0].Members = append(res.Clusters[0].Members, moved)
	if err := x.check(res); err == nil {
		t.Error("a wrongly clustered record passed")
	}
}
