package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/pta"
)

// pickSample chooses k distinct request indices in [0, n) for the reference
// check, from the run seed.
func pickSample(seed int64, n, k int) map[int]bool {
	rng := rand.New(rand.NewSource(mix(seed, streamSample, 0)))
	out := map[int]bool{}
	for _, i := range rng.Perm(n)[:min(k, n)] {
		out[i] = true
	}
	return out
}

// alternate traces every other request, so a traced run measures its own
// overhead on interleaved requests that see the same cache state.
func alternate(i int) bool { return i%2 == 1 }

// answered is one verified answer kept for later inspection.
type answered struct {
	req request
	res *serve.ResultWire
}

// verify checks one closed-loop answer and records the outcome.
func (e *env) verify(req request, status int, body []byte) *serve.ResultWire {
	e.rep.Attempted++
	if status != http.StatusOK {
		e.rep.fail("%s %s: status %d: %.200s", req.Plan.Strategy, req.Plan.budget(), status, body)
		return nil
	}
	res, err := decodeAnswer(body)
	if err == nil {
		err = checkAnswer(req, res)
	}
	if err != nil {
		e.rep.fail("%s %s: %v", req.Plan.Strategy, req.Plan.budget(), err)
		return nil
	}
	return res
}

// checkReferences compares sampled answers with the in-process pruned-scan
// optimum; a mismatch fails that request.
func (e *env) checkReferences(sampled []answered) {
	for _, a := range sampled {
		if err := checkReference(a.req, a.res); err != nil {
			e.rep.fail("reference check: %v", err)
		}
	}
}

// latencies returns each sample's latency in ms; a failed request counts as
// +Inf, i.e. as missing every limit.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency())
		if s.Status != http.StatusOK {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// addP99 prints the run's p99 latency, falling back to the highest
// percentile that keeps ten samples beyond it. It is not a gated metric:
// on a shared virtual machine it follows the hypervisor's CPU steal (on a
// 2-vCPU VM, hot's p99 moved 60% between runs at 0.2-2% steal), far past
// any usable bound.
func (e *env) addP99(lat []float64, how string) {
	q := tailQuantile(len(lat))
	e.rep.addInfo("p99_ms", quantile(lat, q), "ms", fmt.Sprintf("%s, p%.0f of n=%d", how, 100*q, len(lat)))
}

// addLatency reports p50_ms and p90_ms, and prints p99.
func (e *env) addLatency(lat []float64, how string) {
	n := len(lat)
	e.rep.add("p50_ms", median(lat), "ms", fmt.Sprintf("%s, n=%d", how, n))
	e.rep.add("p90_ms", quantile(lat, 0.90), "ms", fmt.Sprintf("%s, n=%d", how, n))
	e.addP99(lat, how)
}

// windowRate splits samples (in completion order) into consecutive windows
// of about a tenth of the run, at least minPer requests each, and returns
// the median over windows of answered requests per second of busy time. The
// median keeps a burst of stolen CPU in one window from moving the figure.
func windowRate(samples []sample, minPer int) (rps float64, windows int) {
	per := max(minPer, len(samples)/10)
	var rates []float64
	for lo := 0; lo+per <= len(samples); lo += per {
		var busy time.Duration
		ok := 0
		for _, s := range samples[lo : lo+per] {
			busy += s.Done - s.Sent
			if s.Status == http.StatusOK {
				ok++
			}
		}
		rates = append(rates, float64(ok)/busy.Seconds())
	}
	return median(rates), len(rates)
}

// closedE2E reports the closed-loop metrics of a one-client run: latency
// percentiles, rows and requests answered per second of busy time.
func (e *env) closedE2E(samples []sample, rowsPerReq int) {
	e.addLatency(latencies(samples), "closed loop, 1 client")
	rps, w := windowRate(samples, 5)
	e.rep.add("rows_per_s", rps*float64(rowsPerReq), "1/s",
		fmt.Sprintf("%d input rows per request, median of %d windows", rowsPerReq, w))
	e.rep.add("max_rps", rps, "1/s", fmt.Sprintf("closed loop: rows_per_s / %d, the request rate one waiting client sustains", rowsPerReq))
}

// finish adds the metrics every workload reports last.
func (e *env) finish() {
	if !e.traced {
		ok := 0.0
		if e.rep.Attempted > 0 {
			ok = float64(e.rep.Attempted-e.rep.Failed) / float64(e.rep.Attempted)
		}
		e.rep.add("ok_ratio", ok, "ratio", fmt.Sprintf("%d of %d verified", e.rep.Attempted-e.rep.Failed, e.rep.Attempted))
		e.rep.add("peak_rss_mb", peakRSSMB(), "MiB", "VmHWM of the whole process")
	}
}

// runPaper is the Fig. 18a shape: every request a distinct Uniform series
// under ptac c = 200, so every request is a cold fill at monotone coverage 0.
func runPaper(e *env) error {
	cfg := e.cfg
	type setup struct {
		c     *cluster
		cl    *client
		first []request
	}
	st, teardown, err := repeatSetup(e, func() (*setup, func(), error) {
		c, err := startSingle(e.tr)
		if err != nil {
			return nil, nil, err
		}
		first := make([]request, cfg.PaperMinRequests)
		for i := range first {
			if first[i], err = paperRequest(cfg, e.seed, i); err != nil {
				c.close()
				return nil, nil, err
			}
		}
		cl := newClient(e.tr, c.entry.url+"/v1/compress", 1)
		return &setup{c, cl, first}, func() { cl.close(); c.close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	sample := pickSample(e.seed, cfg.PaperMinRequests, cfg.ReferenceChecks)
	var (
		cur     request
		sampled []answered
		stats   []serve.StatsWire
	)
	next := func(i int) ([]byte, error) {
		if i < len(st.first) {
			cur = st.first[i]
			st.first[i] = request{} // let the GC have it once sent
			return cur.Body, nil
		}
		var err error
		cur, err = paperRequest(cfg, e.seed, i)
		return cur.Body, err
	}
	answer := func(i, status int, body []byte) {
		res := e.verify(cur, status, body)
		if res == nil {
			return
		}
		if sample[i] {
			sampled = append(sampled, answered{cur, res})
		}
		stats = append(stats, res.Stats)
	}
	dur, minReq, traced := e.dur, cfg.PaperMinRequests, (func(int) bool)(nil)
	if e.traced {
		dur, minReq, traced = e.frac(0.6), min(cfg.PaperMinRequests, 40), alternate
	}
	before := scrapeAll(st.c.workers)
	samples, err := closedLoop(st.cl, dur, minReq, next, traced, answer)
	if err != nil {
		return err
	}
	after := scrapeAll(st.c.workers)
	e.checkReferences(sampled)

	cov := 0.0
	for _, a := range sampled {
		v, err := pta.MonotoneCoverage(a.req.Input, pta.Options{})
		if err != nil {
			return err
		}
		cov += v / float64(len(sampled))
	}
	e.rep.Props["monotone_coverage"] = cov
	e.rep.Props["rows_per_request"] = cfg.PaperRows
	e.rep.Props["serve_hit_share"] = hitShare(before, after, "ptaserve_cache")

	if !e.traced {
		e.closedE2E(samples, cfg.PaperRows)
		e.finish()
		return nil
	}
	ld := &layerData{samples: samples, stats: stats, before: before, after: after, entry: "worker"}
	// In-memory handler calls and direct library calls on fresh inputs.
	for k := 0; k < cfg.ReferenceChecks; k++ {
		req, err := paperRequest(cfg, e.seed, 1_000_000+k)
		if err != nil {
			return err
		}
		b, _ := req.Plan.parse()
		hms, err := e.inMemory(ld, st.c.entry.srv.Handler(), req.Body)
		if err != nil {
			return err
		}
		lib, err := e.library(ld, req.Input, b, []*pta.Series{req.Input}, cfg.PaperC)
		if err != nil {
			return err
		}
		ld.selfMS = append(ld.selfMS, hms-lib.fingerprint-lib.fill)
	}
	e.reportLayers(ld)
	return nil
}

// runHot serves warm hits: set-up fills every series into one worker and
// sends every body twice (the second answers are the references), so timed
// requests never fill.
func runHot(e *env) error {
	cfg := e.cfg
	type setup struct {
		c    *cluster
		cl   *client
		reqs []request
		refs [][]byte
	}
	st, teardown, err := repeatSetup(e, func() (*setup, func(), error) {
		reqs, err := hotRequests(cfg, e.seed)
		if err != nil {
			return nil, nil, err
		}
		c, err := startSingle(e.tr)
		if err != nil {
			return nil, nil, err
		}
		cl := newClient(e.tr, c.entry.url+"/v1/compress", cfg.HotConns)
		st := &setup{c: c, cl: cl, reqs: reqs, refs: make([][]byte, len(reqs))}
		teardown := func() { cl.close(); c.close() }
		var buf bytes.Buffer
		for pass := 0; pass < 2; pass++ {
			for i, r := range reqs {
				status, err := cl.post(r.Body, false, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
				}
				if err == nil && pass == 1 {
					err = checkBody(r, buf.Bytes())
				}
				if err != nil {
					teardown()
					return nil, nil, fmt.Errorf("warm-up %s %s: %w", r.Plan.Strategy, r.Plan.budget(), err)
				}
				if pass == 1 {
					st.refs[i] = slices.Clone(buf.Bytes())
				}
			}
		}
		return st, teardown, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	bodies := make([][]byte, len(st.reqs))
	for i, r := range st.reqs {
		bodies[i] = r.Body
	}
	rng := rand.New(rand.NewSource(mix(e.seed, streamOrder, 0)))
	order := make([]int, 8192)
	for i := range order {
		order[i] = rng.Intn(len(bodies))
	}
	for i := range pickSample(e.seed, len(st.reqs), cfg.ReferenceChecks) {
		res, err := decodeAnswer(st.refs[i])
		if err != nil {
			return err
		}
		e.checkReferences([]answered{{st.reqs[i], res}})
	}

	// Answers are compared with the verified set-up answer of the same body;
	// anything else is checked in full after the timed phase.
	type oddAnswer struct {
		req  request
		body []byte
	}
	var (
		mu        sync.Mutex
		attempted int
		odd       []oddAnswer
	)
	byOrder := func(i, status int, body []byte) {
		j := order[i%len(order)]
		mu.Lock()
		defer mu.Unlock()
		attempted++
		if status != http.StatusOK {
			e.rep.fail("status %d: %.200s", status, body)
			return
		}
		if !bytes.Equal(body, st.refs[j]) {
			odd = append(odd, oddAnswer{st.reqs[j], slices.Clone(body)})
		}
	}
	checkOdd := func() {
		for _, a := range odd {
			if err := checkBody(a.req, a.body); err != nil {
				e.rep.fail("%s %s: %v", a.req.Plan.Strategy, a.req.Plan.budget(), err)
			}
		}
		e.rep.Attempted += attempted
		odd, attempted = nil, 0
	}

	before := scrapeAll(st.c.workers)
	if e.traced {
		nominal := max(cfg.HotMinRequests, int(cfg.HotRate*e.frac(0.4).Seconds()))
		samples := openLoop(st.cl, bodies, order, cfg.HotRate, nominal, cfg.HotConns, alternate, byOrder)
		after := scrapeAll(st.c.workers)
		checkOdd()
		e.hotProps(st.reqs, before, after)
		var stats []serve.StatsWire
		for _, r := range st.refs {
			res, _ := decodeAnswer(r)
			stats = append(stats, res.Stats)
		}
		ld := &layerData{samples: samples, stats: stats, before: before, after: after, entry: "worker", open: true}
		return e.hotLayers(ld, st.c.entry.srv.Handler(), st.reqs)
	}

	// The nominal phase is five back-to-back windows, at least
	// HotMinRequests in all. p50 and p90 are the medians of the windows'
	// percentiles of service time (from send), so neither a burst of stolen
	// CPU in one window nor the queue such a stall builds behind it sets
	// them; p99 (informational) is timed from the due time.
	const windows = 5
	perWindow := max((cfg.HotMinRequests+windows-1)/windows, int(cfg.HotRate*e.frac(0.045).Seconds()))
	samples := openLoop(st.cl, bodies, order, cfg.HotRate, windows*perWindow, cfg.HotConns, nil, byOrder)
	var p50s, p90s []float64
	for w := 0; w < windows; w++ {
		var svc []float64
		for _, s := range samples[w*perWindow : (w+1)*perWindow] {
			v := ms(s.Done - s.Sent)
			if s.Status != http.StatusOK {
				v = math.Inf(1)
			}
			svc = append(svc, v)
		}
		p50s = append(p50s, quantile(svc, 0.5))
		p90s = append(p90s, quantile(svc, 0.9))
	}
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = ms(s.late())
	}

	// Saturation: HotConns closed-loop senders give the throughput ceiling
	// and bracket the ladder search.
	sat := saturate(st.cl, bodies, order, cfg.HotConns, e.frac(0.35), byOrder)
	slices.SortFunc(sat, func(a, b sample) int { return int(a.Done - b.Done) })
	satRPS, satWindows := windowRate(sat, 50)

	// max_rps: binary search over the fixed ladder between 90% and 106% of
	// the saturation rate, assuming pass below and fail above. With one
	// connection an open loop cannot sustain much more than the closed-loop
	// rate, so the bracket is narrow and its probes can be long.
	// A rung fails only when two windows in a row fail: near saturation a
	// single stall of the virtual CPU backs up enough requests to break p99,
	// and one such stall should not move the figure by a rung or more.
	lo, hi := ladderRung(0.9*satRPS), ladderRung(1.06*satRPS)+1
	var probes []probe
	try := func(j int) bool {
		rate := ladderRate(j)
		for range 2 {
			s := openLoop(st.cl, bodies, order, rate, cfg.HotProbeRequests, cfg.HotConns, nil, byOrder)
			p := judge(s, rate, cfg.HotLimitMS)
			probes = append(probes, p)
			if p.Pass {
				return true
			}
		}
		return false
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	for lo > 0 && !slices.ContainsFunc(probes, func(p probe) bool { return p.Pass }) && !try(lo) {
		lo = max(0, lo-4) // the bracket's floor failed: walk down 12%
	}
	after := scrapeAll(st.c.workers)
	checkOdd()

	how := fmt.Sprintf("open loop at %g/s", cfg.HotRate)
	e.rep.add("p50_ms", median(p50s), "ms", fmt.Sprintf("%s from send, median of %d windows (n=%d each)", how, windows, perWindow))
	e.rep.add("p90_ms", median(p90s), "ms", fmt.Sprintf("%s from send, median of %d windows (n=%d each)", how, windows, perWindow))
	e.addP99(latencies(samples), how+" from due time")
	e.rep.add("rows_per_s", satRPS*float64(cfg.HotRows), "1/s",
		fmt.Sprintf("closed loop, %d connection(s), %d input rows per request, median of %d windows", cfg.HotConns, cfg.HotRows, satWindows))
	e.rep.add("max_rps", ladderRate(lo), "1/s",
		fmt.Sprintf("highest 3%%-ladder rate with p99 <= %g ms and no growing backlog (%d probes)", cfg.HotLimitMS, len(probes)))
	for _, p := range probes {
		fmt.Fprintf(e.out, "hot ladder probe: %v\n", p)
	}
	e.rep.Props["generator_late_ms_p99"] = quantile(late, 0.99)
	e.rep.Props["saturation_rps"] = satRPS
	e.hotProps(st.reqs, before, after)
	e.finish()
	return nil
}

func (e *env) hotProps(reqs []request, before, after scrape) {
	cov, n := 0.0, 0
	for i := 0; i < len(reqs); i += e.cfg.HotPlansPerSeries {
		v, err := pta.MonotoneCoverage(reqs[i].Input, pta.Options{})
		if err == nil {
			cov += v
			n++
		}
	}
	e.rep.Props["monotone_coverage"] = cov / float64(max(n, 1))
	e.rep.Props["rows_per_request"] = e.cfg.HotRows
	e.rep.Props["serve_hit_share"] = hitShare(before, after, "ptaserve_cache")
	e.rep.Props["dp_cells_filled"] = delta(before, after, "ptaserve_dp_cells_filled_total")
}

// runFleet drives strategy "dist" through a front node whose coordinator
// fans out over two peered workers with spill directories.
func runFleet(e *env) error {
	cfg := e.cfg
	type setup struct {
		c  *cluster
		cl *client
		fw *fleetWorkload
	}
	st, teardown, err := repeatSetup(e, func() (*setup, func(), error) {
		fw, err := newFleetWorkload(cfg, e.seed)
		if err != nil {
			return nil, nil, err
		}
		c, err := startFleet(e.tr, e.tmpRoot)
		if err != nil {
			return nil, nil, err
		}
		cl := newClient(e.tr, c.entry.url+"/v1/compress", 1)
		return &setup{c, cl, fw}, func() { cl.close(); c.close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	rowsPerReq := cfg.FleetGroups * cfg.FleetRunRows
	sample := pickSample(e.seed, cfg.FleetMinRequests, cfg.ReferenceChecks)
	var (
		cur     request
		sampled []answered
		stats   []serve.StatsWire
		covSum  float64
		covN    int
	)
	next := func(i int) ([]byte, error) {
		var err error
		cur, err = st.fw.request(i)
		return cur.Body, err
	}
	answer := func(i, status int, body []byte) {
		res := e.verify(cur, status, body)
		if res == nil {
			return
		}
		if sample[i] {
			sampled = append(sampled, answered{cur, res})
		}
		if i%16 == 0 {
			if v, err := pta.MonotoneCoverage(cur.Input, pta.Options{}); err == nil {
				covSum += v
				covN++
			}
		}
		stats = append(stats, res.Stats)
	}
	dur, minReq, traced := e.dur, cfg.FleetMinRequests, (func(int) bool)(nil)
	if e.traced {
		dur, traced = e.frac(0.6), alternate
	}
	before := scrapeAll(st.c.workers)
	frontBefore := st.c.entry.scrape()
	samples, err := closedLoop(st.cl, dur, minReq, next, traced, answer)
	if err != nil {
		return err
	}
	after := scrapeAll(st.c.workers)
	frontAfter := st.c.entry.scrape()
	e.checkReferences(sampled)

	e.rep.Props["monotone_coverage"] = covSum / float64(max(covN, 1))
	e.rep.Props["rows_per_request"] = rowsPerReq
	e.rep.Props["serve_hit_share"] = hitShare(before, after, "ptaserve_cache")
	e.rep.Props["curve_hit_share"] = hitShare(frontBefore, frontAfter, "ptadist_curve")
	e.rep.Props["spill_loads"] = delta(before, after, "ptaserve_spill_loads_total")
	e.rep.Props["peer_fetch_hits"] = delta(before, after, "ptapeer_fetch_hits_total")

	if !e.traced {
		e.closedE2E(samples, rowsPerReq)
		e.finish()
		return nil
	}
	ld := &layerData{samples: samples, stats: stats, before: before, after: after,
		frontBefore: frontBefore, frontAfter: frontAfter, entry: "front"}
	return e.fleetLayers(ld, st.c, st.fw, len(samples))
}

// hitShare is hits / (hits + misses) of a <prefix>_{hits,misses}_total pair
// over a scrape interval.
func hitShare(before, after scrape, prefix string) float64 {
	h := delta(before, after, prefix+"_hits_total")
	m := delta(before, after, prefix+"_misses_total")
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// layerData collects what a traced run measured, for reportLayers.
type layerData struct {
	samples                 []sample
	stats                   []serve.StatsWire
	before, after           scrape // worker nodes
	frontBefore, frontAfter scrape // fleet's front node (coordinator)
	entry                   string // span name of the node clients talk to
	open                    bool

	handlerMS, selfMS       []float64 // in-memory handler calls
	inMemoryObj, inMemoryBy uint64    // heap allocations during them
	fingerprintMS, fillMS   []float64
	reconstructMS, curveMS  []float64
	allocateMS, coverage    []float64
	distMS, distSelfMS      []float64
}

// inMemory serves one body through the handler into a recorder and returns
// its duration in ms; allocations are accumulated for allocs_per_req.
func (e *env) inMemory(ld *layerData, h http.Handler, body []byte) (float64, error) {
	id, end := e.tr.begin("serve.handler", 0, reqInMemory)
	r := httptest.NewRequest(http.MethodPost, "/v1/compress", bytes.NewReader(body))
	r = r.WithContext(withSpan(r.Context(), id, reqInMemory))
	rec := httptest.NewRecorder()
	o0, b0 := heapAllocs()
	t0 := time.Now()
	h.ServeHTTP(rec, r)
	d := ms(time.Since(t0))
	o1, b1 := heapAllocs()
	end()
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("in-memory request: status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	ld.handlerMS = append(ld.handlerMS, d)
	ld.inMemoryObj += o1 - o0
	ld.inMemoryBy += b1 - b0
	return d, nil
}

// timed runs f inside a span of the given name and returns its duration.
func (e *env) timed(name string, f func() error) (float64, error) {
	_, end := e.tr.begin(name, 0, reqDirect)
	t0 := time.Now()
	err := f()
	d := ms(time.Since(t0))
	end()
	return d, err
}

// libTimes is one request's direct library call durations, in ms, and the
// warm set of its last run.
type libTimes struct {
	fingerprint, fill, reconstruct float64
	set                            *pta.MatrixSet
}

// library times the pta and core calls a request of this input makes:
// Fingerprint of the whole input, then per run a cold NewMatrixSet plus
// first Compress, a warm Compress, ErrorCurve and MonotoneCoverage, and
// AllocateCurves over the run curves. kmax is the per-run curve depth.
func (e *env) library(ld *layerData, input *pta.Series, b pta.Budget, runs []*pta.Series, kmax int) (libTimes, error) {
	var lt libTimes
	lt.fingerprint, _ = e.timed("pta.fingerprint", func() error { pta.Fingerprint(input); return nil })
	ld.fingerprintMS = append(ld.fingerprintMS, lt.fingerprint)
	curves := make([][]float64, len(runs))
	for i, run := range runs {
		rb := b
		if len(runs) > 1 {
			rb = pta.Size(min(kmax, run.Len()))
		}
		var set *pta.MatrixSet
		fill, err := e.timed("pta.fill", func() error {
			var err error
			if set, err = pta.NewMatrixSet(run, "ptac", pta.Options{}); err != nil {
				return err
			}
			_, err = set.Compress(context.Background(), rb)
			return err
		})
		if err != nil {
			return lt, err
		}
		rec, err := e.timed("pta.reconstruct", func() error {
			_, err := set.Compress(context.Background(), rb)
			return err
		})
		if err != nil {
			return lt, err
		}
		lt.fill += fill
		lt.reconstruct += rec
		lt.set = set
		ld.fillMS = append(ld.fillMS, fill)
		ld.reconstructMS = append(ld.reconstructMS, rec)
		cms, err := e.timed("pta.error_curve", func() error {
			var err error
			curves[i], err = pta.ErrorCurve(run, min(kmax, run.Len()), pta.Options{})
			return err
		})
		if err != nil {
			return lt, err
		}
		ld.curveMS = append(ld.curveMS, cms)
	}
	cov, err := pta.MonotoneCoverage(input, pta.Options{})
	if err != nil {
		return lt, err
	}
	ld.coverage = append(ld.coverage, cov)
	k := kmax
	if b.Kind() == pta.BudgetSize {
		k = b.C()
	}
	ams, _ := e.timed("core.allocate", func() error { core.AllocateCurves(curves, k); return nil })
	ld.allocateMS = append(ld.allocateMS, ams)
	return lt, nil
}

// hotLayers measures the in-memory handler and the library calls of every
// hot body: self time is handler time minus Fingerprint and the warm
// Compress of the same request.
func (e *env) hotLayers(ld *layerData, h http.Handler, reqs []request) error {
	cfg := e.cfg
	sets := map[*pta.Series]*pta.MatrixSet{}
	for i := 0; i < len(reqs); i += cfg.HotPlansPerSeries {
		in := reqs[i].Input
		lt, err := e.library(ld, in, pta.Size(cfg.HotCMax), []*pta.Series{in}, cfg.HotCMax)
		if err != nil {
			return err
		}
		sets[in] = lt.set
	}
	for _, r := range reqs {
		hms, err := e.inMemory(ld, h, r.Body)
		if err != nil {
			return err
		}
		b, _ := r.Plan.parse()
		fp, _ := e.timed("pta.fingerprint", func() error { pta.Fingerprint(r.Input); return nil })
		set := sets[r.Input]
		set.Compress(context.Background(), b) // any deeper rows fill here, untimed
		rec, err := e.timed("pta.reconstruct", func() error {
			_, err := set.Compress(context.Background(), b)
			return err
		})
		if err != nil {
			return err
		}
		ld.selfMS = append(ld.selfMS, hms-fp-rec)
	}
	e.reportLayers(ld)
	return nil
}

// fleetLayers drives extra fleet requests through the front handler in
// memory and through Coordinator.Compress directly, and times the library
// calls on their runs. Both continue the request stream, so their fresh
// runs are cold as in the timed loop.
func (e *env) fleetLayers(ld *layerData, c *cluster, fw *fleetWorkload, next int) error {
	cfg := e.cfg
	kcap := cfg.FleetC - cfg.FleetGroups + 1
	const perKind = 8
	for k := 0; k < perKind; k++ {
		req, err := fw.request(next)
		next++
		if err != nil {
			return err
		}
		if _, err := e.inMemory(ld, c.entry.srv.Handler(), req.Body); err != nil {
			return err
		}
		req, err = fw.request(next)
		next++
		if err != nil {
			return err
		}
		b, _ := req.Plan.parse()
		id, end := e.tr.begin("dist.compress", 0, reqDirect)
		t0 := time.Now()
		_, err = c.co.Compress(withSpan(context.Background(), id, reqDirect), req.Input, b, pta.Options{})
		ld.distMS = append(ld.distMS, ms(time.Since(t0)))
		end()
		if err != nil {
			return err
		}
		if _, err := e.library(ld, req.Input, b, splitRuns(req.Input), kcap); err != nil {
			return err
		}
	}
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	for _, s := range spans {
		switch s.Name {
		case "serve.handler":
			ld.selfMS = append(ld.selfMS, ms(self[s.ID]))
		case "dist.compress":
			ld.distSelfMS = append(ld.distSelfMS, ms(self[s.ID]))
		}
	}
	e.reportLayers(ld)
	return nil
}

// splitRuns cuts a grouped series into one sub-series per group.
func splitRuns(s *pta.Series) []*pta.Series {
	var runs []*pta.Series
	lo := 0
	for i := 1; i <= len(s.Rows); i++ {
		if i == len(s.Rows) || s.Rows[i].Group != s.Rows[lo].Group {
			runs = append(runs, s.WithRows(s.Rows[lo:i]))
			lo = i
		}
	}
	return runs
}

// reportLayers turns a traced run's measurements into the per-layer
// metrics. Layers a workload does not exercise read 0.
func (e *env) reportLayers(ld *layerData) {
	r := e.rep
	nreq := float64(max(len(ld.samples), 1))
	meanStat := func(f func(serve.StatsWire) float64) float64 {
		s := 0.0
		for _, st := range ld.stats {
			s += f(st)
		}
		return s / float64(max(len(ld.stats), 1))
	}
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(max(len(xs), 1))
	}
	r.add("core.cells", meanStat(func(s serve.StatsWire) float64 { return float64(s.Cells) }), "count", "mean per answer, response stats")
	r.add("core.inner_iters", meanStat(func(s serve.StatsWire) float64 { return float64(s.InnerIters) }), "count", "mean per answer, response stats")
	r.add("core.envelope_skips", meanStat(func(s serve.StatsWire) float64 { return float64(s.EnvelopeSkips) }), "count", "mean per answer, response stats")
	r.add("core.monotone_coverage", mean(ld.coverage), "ratio", "pta.MonotoneCoverage on the inputs")
	r.add("core.allocate_ms", med(ld.allocateMS), "ms", "core.AllocateCurves over the run curves")
	r.add("pta.fill_ms", med(ld.fillMS), "ms", "NewMatrixSet + first Compress, per run")
	r.add("pta.reconstruct_ms", med(ld.reconstructMS), "ms", "Compress on a warm set")
	r.add("pta.fingerprint_ms", med(ld.fingerprintMS), "ms", "pta.Fingerprint of a request input")
	r.add("pta.error_curve_ms", med(ld.curveMS), "ms", "pta.ErrorCurve per run")
	r.add("serve.handler_ms", med(ld.handlerMS), "ms", fmt.Sprintf("Handler().ServeHTTP into a recorder, n=%d", len(ld.handlerMS)))
	r.add("serve.self_ms", med(ld.selfMS), "ms", "handler time minus the library time of the same request")
	r.add("serve.allocs_per_req", float64(ld.inMemoryObj)/float64(max(len(ld.handlerMS), 1)), "count", "heap objects per in-memory request, whole process")
	r.add("serve.alloc_bytes_per_req", float64(ld.inMemoryBy)/float64(max(len(ld.handlerMS), 1)), "bytes", "heap bytes per in-memory request, whole process")

	var reqB, respB []float64
	var overhead, tracedLat, plainLat []float64
	spans := e.tr.snapshot()
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name != ld.entry {
			continue
		}
		if cs, ok := byID[s.Parent]; ok && cs.Name == "client" {
			overhead = append(overhead, ms(cs.dur()-s.dur()))
		}
	}
	for _, s := range ld.samples {
		reqB = append(reqB, float64(s.ReqBytes))
		respB = append(respB, float64(s.RespSz))
		if s.Traced {
			tracedLat = append(tracedLat, ms(s.latency()))
		} else {
			plainLat = append(plainLat, ms(s.latency()))
		}
	}
	r.add("serve.request_bytes", mean(reqB), "bytes", "mean request body, client-counted")
	r.add("serve.response_bytes", mean(respB), "bytes", "mean response body, client-counted")

	hits := delta(ld.before, ld.after, "ptaserve_cache_hits_total")
	miss := delta(ld.before, ld.after, "ptaserve_cache_misses_total")
	ratio := 0.0
	if hits+miss > 0 {
		ratio = hits / (hits + miss)
	}
	r.add("serve.cache_hit_ratio", ratio, "ratio", fmt.Sprintf("/metrics delta on the workers (%g hits, %g misses)", hits, miss))
	r.add("serve.dp_cells_filled", delta(ld.before, ld.after, "ptaserve_dp_cells_filled_total")/nreq, "count/req", "/metrics delta per request")
	r.add("serve.fill_s", delta(ld.before, ld.after, "ptaserve_cache_fill_seconds_sum")/nreq, "s/req", "/metrics delta per request")
	r.add("serve.admission_queued", delta(ld.before, ld.after, "ptaserve_admission_queued_total"), "count", "/metrics delta")
	r.add("serve.admission_rejected", delta(ld.before, ld.after, "ptaserve_admission_rejected_total"), "count", "/metrics delta")
	r.add("serve.spill_stores", delta(ld.before, ld.after, "ptaserve_spill_stores_total")/nreq, "count/req", "/metrics delta per request")
	r.add("serve.spill_loads", delta(ld.before, ld.after, "ptaserve_spill_loads_total")/nreq, "count/req", "/metrics delta per request")
	r.add("serve.peer_fetch_hits", delta(ld.before, ld.after, "ptapeer_fetch_hits_total")/nreq, "count/req", "/metrics delta per request")

	var shardMS []float64
	for _, s := range spans {
		if s.Name == "dist.shard" {
			shardMS = append(shardMS, ms(s.dur()))
		}
	}
	r.add("dist.compress_ms", med(ld.distMS), "ms", "Coordinator.Compress, timed directly")
	r.add("dist.shard_ms", med(shardMS), "ms", "shard round trip, instrumented RoundTripper")
	r.add("dist.shard_requests_per_req", delta(ld.frontBefore, ld.frontAfter, "ptadist_shard_requests_total")/nreq, "count/req", "/metrics delta per request")
	r.add("dist.self_ms", med(ld.distSelfMS), "ms", "Coordinator.Compress minus shard spans covering it")
	ch := delta(ld.frontBefore, ld.frontAfter, "ptadist_curve_hits_total")
	cm := delta(ld.frontBefore, ld.frontAfter, "ptadist_curve_misses_total")
	cratio := 0.0
	if ch+cm > 0 {
		cratio = ch / (ch + cm)
	}
	r.add("dist.curve_hit_ratio", cratio, "ratio", "/metrics delta on the coordinator")
	r.add("dist.retries", delta(ld.frontBefore, ld.frontAfter, "ptadist_retries_total"), "count", "/metrics delta")

	r.add("http.overhead_ms", med(overhead), "ms", "client span minus the entry handler span of the same request")
	late := 0.0
	if ld.open {
		var l []float64
		for _, s := range ld.samples {
			l = append(l, ms(s.late()))
		}
		late = quantile(l, 0.99)
	}
	r.add("bench.late_ms_p99", late, "ms", "open-loop generator lateness (0 for closed loops)")
	r.add("bench.trace_overhead_ms", med(tracedLat)-med(plainLat), "ms",
		fmt.Sprintf("median traced minus untraced latency, interleaved (%d/%d requests)", len(tracedLat), len(plainLat)))
}
