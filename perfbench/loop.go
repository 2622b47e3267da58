package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client sends pre-encoded bodies to one endpoint over at most conns
// keep-alive connections.
type client struct {
	hc    *http.Client
	url   string
	tr    *tracer
	reqID atomic.Int64 // ids of traced requests
}

func newClient(tr *tracer, url string, conns int) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		url: url,
		tr:  tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// sample is one request as the client saw it. Times are offsets from the
// loop's start; Due is when an open loop meant to send it.
type sample struct {
	Due, Sent, Done  time.Duration
	Status           int
	ReqBytes, RespSz int
	Traced           bool
}

func (s sample) latency() time.Duration { return s.Done - s.Due }
func (s sample) late() time.Duration    { return s.Sent - s.Due }

// post sends one body. With traced set (and a tracer) it opens a client
// span and passes the request id and span id in headers, so the server's
// handler wrapper can parent its span. The response body lands in buf.
func (c *client) post(body []byte, traced bool, buf *bytes.Buffer) (status int, err error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced && c.tr != nil {
		id := c.reqID.Add(1)
		sid, end := c.tr.begin("client", 0, id)
		defer end()
		req.Header.Set(headerReq, strconv.FormatInt(id, 10))
		req.Header.Set(headerSpan, strconv.FormatInt(sid, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// answerFunc receives every response (status 0 on a transport error). It
// runs outside the timed interval; in open loops it runs on the sender
// goroutines, so it must be cheap and safe for concurrent use.
type answerFunc func(i int, status int, body []byte)

// closedLoop runs one client that sends request i+1 only after request i is
// answered, until dur has passed and at least minReq requests were sent.
// Making and checking requests is not timed.
func closedLoop(c *client, dur time.Duration, minReq int, next func(i int) ([]byte, error), traced func(i int) bool, answer answerFunc) ([]sample, error) {
	var out []sample
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; time.Since(start) < dur || i < minReq; i++ {
		body, err := next(i)
		if err != nil {
			return out, err
		}
		tr := traced != nil && traced(i)
		t0 := time.Since(start)
		status, err := c.post(body, tr, &buf)
		t1 := time.Since(start)
		if err != nil {
			status = 0
		}
		out = append(out, sample{Due: t0, Sent: t0, Done: t1, Status: status, ReqBytes: len(body), RespSz: buf.Len(), Traced: tr})
		answer(i, status, buf.Bytes())
	}
	return out, nil
}

// openLoop sends n requests at fixed intervals of 1/rate from conns sender
// goroutines (one connection each). Request i is due at start + i/rate and
// is timed from then, so a stall also charges the requests queued behind
// it; Sent − Due is the generator's lateness. bodies[order[i % len]] is
// request i's body.
func openLoop(c *client, bodies [][]byte, order []int, rate float64, n, conns int, traced func(i int) bool, answer answerFunc) []sample {
	out := make([]sample, n)
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) * interval)
				waitUntil(start.Add(due))
				idx := order[i%len(order)]
				tr := traced != nil && traced(i)
				sent := time.Since(start)
				status, err := c.post(bodies[idx], tr, &buf)
				done := time.Since(start)
				if err != nil {
					status = 0
				}
				out[i] = sample{Due: due, Sent: sent, Done: done, Status: status, ReqBytes: len(bodies[idx]), RespSz: buf.Len(), Traced: tr}
				answer(i, status, buf.Bytes())
			}
		}()
	}
	wg.Wait()
	return out
}

// waitUntil sleeps until shortly before t and spins the rest of the way:
// timer wake-ups overshoot by up to a millisecond, which would otherwise
// show up as generator lateness in every open-loop latency.
func waitUntil(t time.Time) {
	const spin = 300 * time.Microsecond
	if d := time.Until(t); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(t) {
	}
}

// saturate runs conns closed-loop senders over the body order for dur and
// returns the samples (throughput is requests over the summed busy time).
func saturate(c *client, bodies [][]byte, order []int, conns int, dur time.Duration, answer answerFunc) []sample {
	var mu sync.Mutex
	var out []sample
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				idx := order[i%len(order)]
				t0 := time.Since(start)
				status, err := c.post(bodies[idx], false, &buf)
				t1 := time.Since(start)
				if err != nil {
					status = 0
				}
				answer(i, status, buf.Bytes())
				mu.Lock()
				out = append(out, sample{Due: t0, Sent: t0, Done: t1, Status: status, ReqBytes: len(bodies[idx]), RespSz: buf.Len()})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// ladderRate is rung j of the fixed max_rps ladder: 3% apart, finer than
// max_rps's bound.
func ladderRate(j int) float64 { return 20 * math.Pow(1.03, float64(j)) }

// ladderRung is the highest rung at or below rate.
func ladderRung(rate float64) int {
	return int(math.Floor(math.Log(rate/20) / math.Log(1.03)))
}

// probe is one open-loop window at a ladder rung.
type probe struct {
	Rate    float64
	P99MS   float64
	Growing bool
	Pass    bool
}

func (p probe) String() string {
	return fmt.Sprintf("rate %.1f/s p99 %.2f ms backlog-growing %v pass %v", p.Rate, p.P99MS, p.Growing, p.Pass)
}

// judge decides one ladder window: p99 (from due time) within the limit,
// failures counted as misses, and no growing backlog — lateness over the
// last fifth of the window not above the first fifth by more than a
// quarter of the limit.
func judge(samples []sample, rate, limitMS float64) probe {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = ms(s.latency())
		if s.Status != http.StatusOK {
			lat[i] = math.Inf(1)
		}
	}
	p := probe{Rate: rate, P99MS: quantile(lat, 0.99)}
	fifth := len(samples) / 5
	head := make([]float64, 0, fifth)
	tail := make([]float64, 0, fifth)
	for i := 0; i < fifth; i++ {
		head = append(head, ms(samples[i].late()))
		tail = append(tail, ms(samples[len(samples)-fifth+i].late()))
	}
	p.Growing = median(tail)-median(head) > limitMS/4
	p.Pass = p.P99MS <= limitMS && !p.Growing
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(r, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile, at most p99, that leaves at least
// ten of n samples beyond it.
func tailQuantile(n int) float64 {
	pct := max(0, (n-10)*100/max(n, 1)) // integer percent: no rounding surprises
	return float64(min(99, pct)) / 100
}
