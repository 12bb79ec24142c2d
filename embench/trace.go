package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// tracing is what a traced run installs: the program's own span tracer,
// handed to the packages whose public API takes one, and the benchmark's
// call logs, filled by the timing wrappers around the layers that do not.
// An untraced run passes a nil *tracing and installs nothing.
type tracing struct {
	tracer *obs.Tracer
	// epoch approximates the tracer's own epoch, from which span start
	// times count.
	epoch time.Time
	// layers collects the per-layer values the workload reports, from
	// its set-up and its timed phase.
	layers map[string]float64

	handler   callLog // serve.Server.Handler /match calls (every replica)
	front     callLog // fleet.Front.Handler /match calls
	frontSelf callLog // front calls minus their linked Transport.Match time
	transport callLog // fleet.Transport.Match calls
}

func newTracing() *tracing {
	return &tracing{tracer: obs.NewTracer(), epoch: time.Now(), layers: make(map[string]float64)}
}

// startPhase drops the calls logged during set-up (cache warm-up) and
// returns the tracer-relative time the timed phase starts at.
func (tr *tracing) startPhase() int64 {
	for _, l := range []*callLog{&tr.handler, &tr.front, &tr.frontSelf, &tr.transport} {
		l.mu.Lock()
		l.durs = nil
		l.mu.Unlock()
	}
	return int64(time.Since(tr.epoch))
}

// spansFrom returns the spans that started at or after t.
func (tr *tracing) spansFrom(t int64) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, r := range tr.tracer.Records() {
		if r.StartNS >= t {
			out = append(out, r)
		}
	}
	return out
}

// callLog is a concurrency-safe list of call durations.
type callLog struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (l *callLog) add(d time.Duration) {
	l.mu.Lock()
	l.durs = append(l.durs, d)
	l.mu.Unlock()
}

// quantileUs returns the q-quantile of the logged durations in µs.
func (l *callLog) quantileUs(q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return quantile(durationsUs(l.durs), q)
}

// reqTrace links one front request to the Transport.Match calls made on
// its behalf: the front passes the request context down to its
// transport, so the wrapper finds the reqTrace there.
type reqTrace struct {
	mu    sync.Mutex
	calls [][2]time.Time // [start, end]; end is zero while in flight
}

type reqTraceKey struct{}

func (rt *reqTrace) open(t time.Time) int {
	if rt == nil {
		return -1
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.calls = append(rt.calls, [2]time.Time{t})
	return len(rt.calls) - 1
}

func (rt *reqTrace) close(i int, t time.Time) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.calls[i][1] = t
	rt.mu.Unlock()
}

// covered returns how much of [start, end] the linked calls cover,
// counting overlapping calls (fan-out, hedges) once. A call still in
// flight when the handler returns (a losing hedge) covers up to end.
func (rt *reqTrace) covered(start, end time.Time) time.Duration {
	rt.mu.Lock()
	iv := make([][2]time.Time, len(rt.calls))
	copy(iv, rt.calls)
	rt.mu.Unlock()
	for i := range iv {
		if iv[i][0].Before(start) {
			iv[i][0] = start
		}
		if iv[i][1].IsZero() || iv[i][1].After(end) {
			iv[i][1] = end
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curStart, curEnd time.Time
	for i, c := range iv {
		if i == 0 || c[0].After(curEnd) {
			if i > 0 {
				total += curEnd.Sub(curStart)
			}
			curStart, curEnd = c[0], c[1]
			continue
		}
		if c[1].After(curEnd) {
			curEnd = c[1]
		}
	}
	if len(iv) > 0 {
		total += curEnd.Sub(curStart)
	}
	return total
}

// timedHandler times /match calls into an http.Handler and passes every
// request through unchanged. With self set it also links the request to
// the transport calls it causes and logs the handler's self time.
type timedHandler struct {
	next  http.Handler
	calls *callLog
	self  *callLog
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/match" {
		h.next.ServeHTTP(w, r)
		return
	}
	var rt *reqTrace
	if h.self != nil {
		rt = &reqTrace{}
		r = r.WithContext(context.WithValue(r.Context(), reqTraceKey{}, rt))
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.calls.add(end.Sub(start))
	if rt != nil {
		h.self.add(end.Sub(start) - rt.covered(start, end))
	}
}

// timedTransport times Match calls on the fleet's production transport.
// Its inner field is the concrete *fleet.HTTPTransport, so a traced
// fleet reaches its replicas over the same HTTP path as an untraced one.
type timedTransport struct {
	inner *fleet.HTTPTransport
	calls *callLog
}

func (t *timedTransport) Match(ctx context.Context, url string, body []byte) (int, []byte, error) {
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	start := time.Now()
	i := rt.open(start)
	status, resp, err := t.inner.Match(ctx, url, body)
	end := time.Now()
	rt.close(i, end)
	t.calls.add(end.Sub(start))
	return status, resp, err
}

func (t *timedTransport) Healthz(ctx context.Context, url string) error {
	return t.inner.Healthz(ctx, url)
}

func (t *timedTransport) Stats(ctx context.Context, url string) (serve.Stats, error) {
	return t.inner.Stats(ctx, url)
}

// spanStats folds the program's own spans by name: total duration in
// seconds, each span's duration in µs, and the sum of one int attribute.
type spanStats struct {
	totalS float64
	us     []float64
	attr   int64
}

func foldSpans(recs []obs.SpanRecord, name, attr string) spanStats {
	var st spanStats
	for _, r := range recs {
		if r.Name != name {
			continue
		}
		st.totalS += float64(r.DurNS) / 1e9
		st.us = append(st.us, float64(r.DurNS)/1e3)
		if attr != "" {
			st.attr += r.Int(attr)
		}
	}
	return st
}
