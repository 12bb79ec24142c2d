package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// callers is the closed loop's client count: one per core of the 2-core
// machines the benchmark is tuned on, each with a single connection.
const callers = 2

// wireClient posts binary-wire /match requests over one keep-alive
// connection and decodes the replies.
type wireClient struct {
	http *http.Client
	url  string
	buf  []byte
	resp wire.Response
}

func newWireClient(base string) *wireClient {
	return &wireClient{
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		},
		url: base + "/match",
	}
}

// match posts one request frame and returns the decoded predictions,
// valid until the next call.
func (c *wireClient) match(frame []byte) ([]bool, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, c.url, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf = c.buf[:0]
	w := bytes.NewBuffer(c.buf)
	_, err = io.Copy(w, resp.Body)
	resp.Body.Close()
	c.buf = w.Bytes()
	if err != nil {
		return nil, fmt.Errorf("reading reply: %w", err)
	}
	typ, payload, err := wire.ParseFrame(c.buf)
	if err != nil {
		return nil, fmt.Errorf("status %d: %w", resp.StatusCode, err)
	}
	if typ == wire.TErr {
		werr, derr := wire.DecodeError(payload)
		if derr != nil {
			return nil, derr
		}
		return nil, werr
	}
	if resp.StatusCode != http.StatusOK || typ != wire.TResp {
		return nil, fmt.Errorf("status %d, frame type %d", resp.StatusCode, typ)
	}
	if err := c.resp.Decode(payload); err != nil {
		return nil, err
	}
	return c.resp.Preds, nil
}

func (c *wireClient) close() { c.http.CloseIdleConnections() }

// loadRequest is one closed-loop request: its encoded frame, its pair
// count, and the check its decoded predictions must pass.
type loadRequest struct {
	frame []byte
	pairs int
	check func(preds []bool) bool
}

// loopResult is what a closed loop measured.
type loopResult struct {
	elapsed           time.Duration
	answered          []answered // correctly answered requests only
	attempted, failed int64
}

// answered is one correctly answered request: its latency and its pair
// count.
type answered struct {
	latency time.Duration
	pairs   int
}

// phase summarizes the loop as the workload's timed phase: pairs
// answered correctly per second over the whole run, and latency
// quantiles over every correctly answered request. Whole-run figures
// were steadier from run to run than medians over 1-second windows.
func (r loopResult) phase() phase {
	var pairs float64
	ms := make([]float64, len(r.answered))
	for i, a := range r.answered {
		pairs += float64(a.pairs)
		ms[i] = float64(a.latency) / float64(time.Millisecond)
	}
	return phase{
		runS:      r.elapsed.Seconds(),
		perSec:    ratio(pairs, r.elapsed.Seconds()),
		p50Ms:     quantile(ms, 0.50),
		p99Ms:     quantile(ms, 0.99),
		samples:   len(ms),
		attempted: r.attempted,
		failed:    r.failed,
	}
}

// closedLoop runs the callers until d has elapsed or next runs out of
// input. Each caller sends its next request only after the previous
// reply is decoded; latency runs from send to decoded reply, so request
// encoding stays outside it. A transport error, an error status or a
// failed check counts the request as failed.
func closedLoop(url string, d time.Duration, next func(caller int) (loadRequest, bool)) loopResult {
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	var logged atomic.Bool
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newWireClient(url)
			defer cl.close()
			var done []answered
			var attempted, failed int64
			for time.Now().Before(deadline) {
				req, ok := next(c)
				if !ok {
					break
				}
				attempted++
				t0 := time.Now()
				preds, err := cl.match(req.frame)
				took := time.Since(t0)
				if err == nil && len(preds) != req.pairs {
					err = fmt.Errorf("%d predictions for %d pairs", len(preds), req.pairs)
				}
				if err == nil && !req.check(preds) {
					err = errors.New("wrong answer")
				}
				if err != nil {
					failed++
					if logged.CompareAndSwap(false, true) {
						fmt.Fprintf(os.Stderr, "embench: request failed: %v\n", err)
					}
					continue
				}
				done = append(done, answered{latency: took, pairs: req.pairs})
			}
			mu.Lock()
			res.answered = append(res.answered, done...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// listener serves a handler on an ephemeral loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to exit.
func (l *listener) close() {
	_ = l.srv.Close() // closing the listener is all that is left to do
	<-l.done
}
