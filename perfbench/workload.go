package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/temporal"
	"repro/pta"
)

// config sizes the three workloads. fullConfig is what the benchmark runs;
// smokeConfig shrinks every dimension so the self-tests finish in seconds.
type config struct {
	// paper: the Fig. 18a shape, one distinct series per request.
	PaperRows, PaperDims, PaperC int
	PaperMinRequests             int

	// hot: warm hits against one worker.
	HotSeries, HotRows, HotDims int
	HotCMin, HotCMax            int
	HotEps                      []float64
	HotPlansPerSeries           int
	HotRate                     float64 // nominal arrivals per second
	HotLimitMS                  float64 // p99 limit for max_rps
	HotMinRequests              int     // at the nominal rate
	HotProbeRequests            int     // per max_rps ladder rung
	HotConns                    int

	// fleet: dist fan-out over two peered workers.
	FleetGroups, FleetFresh, FleetRunRows int
	FleetDims, FleetPool, FleetC          int
	FleetZipfS                            float64
	FleetMinRequests                      int

	// ReferenceChecks is how many requests per run are re-solved in-process
	// with the pruned-scan fill and compared with the served answer.
	ReferenceChecks int
	// Set-up runs at least SetupReps times and until it has taken
	// SetupSeconds in total, at most maxSetupReps times; setup_s is the
	// median.
	SetupReps    int
	SetupSeconds float64
}

func fullConfig() config {
	return config{
		PaperRows: 400, PaperDims: 10, PaperC: 200, PaperMinRequests: 100,

		HotSeries: 48, HotRows: 512, HotDims: 2,
		HotCMin: 8, HotCMax: 128,
		HotEps:            []float64{0.002, 0.005, 0.01, 0.02, 0.05},
		HotPlansPerSeries: 8,
		HotRate:           150, HotLimitMS: 50,
		HotMinRequests: 1000, HotProbeRequests: 1500, HotConns: 1,

		FleetGroups: 8, FleetFresh: 2, FleetRunRows: 256,
		FleetDims: 2, FleetPool: 512, FleetC: 48, FleetZipfS: 1.1,
		FleetMinRequests: 100,

		ReferenceChecks: 3,
		SetupReps:       3,
		SetupSeconds:    2,
	}
}

func smokeConfig() config {
	c := fullConfig()
	c.PaperRows, c.PaperC, c.PaperMinRequests = 60, 20, 4
	c.HotSeries, c.HotRows, c.HotCMax = 4, 96, 32
	c.HotPlansPerSeries = 4
	c.HotRate, c.HotMinRequests, c.HotProbeRequests = 200, 40, 40
	c.FleetRunRows, c.FleetPool, c.FleetC, c.FleetMinRequests = 48, 16, 24, 4
	c.ReferenceChecks, c.SetupReps, c.SetupSeconds = 2, 1, 0
	return c
}

// plan is one request's strategy and budget.
type plan struct {
	Strategy string
	C        int     // size budget (ptac, dist)
	Eps      float64 // error budget (ptae)
}

func (p plan) budget() string {
	if p.Strategy == "ptae" {
		return fmt.Sprintf("eps=%g", p.Eps)
	}
	return fmt.Sprintf("c=%d", p.C)
}

func (p plan) parse() (pta.Budget, error) { return pta.ParseBudget(p.budget()) }

// request is one generated request: the body the program receives, and
// what the checker needs to verify the answer.
type request struct {
	Body   []byte
	Input  *pta.Series
	Plan   plan
	MaxErr float64 // SSEmax of Input, for error budgets
}

// mix derives a per-item seed from the run seed, a stream tag and an index
// (splitmix64), so every request is reproducible on its own.
func mix(seed int64, stream, i uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ (i + 1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

const (
	streamPaper uint64 = iota + 1
	streamHot
	streamHotPlans
	streamFleetPool
	streamFleetFresh
	streamFleetDraw
	streamSample
	streamOrder
)

func encodeBody(s *pta.Series, p plan) []byte {
	b, err := json.Marshal(serve.CompressRequest{
		Series: serve.EncodeSeries(s),
		Plan:   serve.PlanWire{Strategy: p.Strategy, Budget: p.budget()},
	})
	if err != nil {
		panic(err) // the wire structs always marshal
	}
	return b
}

// paperRequest is request i of the paper workload: a distinct gap-free
// Uniform series of PaperRows × PaperDims under ptac c = PaperC.
func paperRequest(cfg config, seed int64, i int) (request, error) {
	s, err := dataset.Uniform(1, cfg.PaperRows, cfg.PaperDims, mix(seed, streamPaper, uint64(i)))
	if err != nil {
		return request{}, err
	}
	p := plan{Strategy: "ptac", C: cfg.PaperC}
	return request{Body: encodeBody(s, p), Input: s, Plan: p}, nil
}

// hotRequests builds the hot workload's fixed pool: HotSeries Mixed series,
// each with HotPlansPerSeries plans alternating ptac c ∈ [HotCMin, HotCMax]
// and ptae eps ∈ HotEps. ptac and ptae share a DP class, so once set-up has
// sent every body every later request is a cache hit with no fill.
func hotRequests(cfg config, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(mix(seed, streamHotPlans, 0)))
	var reqs []request
	for si := 0; si < cfg.HotSeries; si++ {
		s, err := dataset.Mixed(1, cfg.HotRows, cfg.HotDims, mix(seed, streamHot, uint64(si)))
		if err != nil {
			return nil, err
		}
		maxErr, err := pta.MaxError(s, pta.Options{})
		if err != nil {
			return nil, err
		}
		for k := 0; k < cfg.HotPlansPerSeries; k++ {
			p := plan{Strategy: "ptac", C: cfg.HotCMin + rng.Intn(cfg.HotCMax-cfg.HotCMin+1)}
			if k%2 == 1 {
				p = plan{Strategy: "ptae", Eps: cfg.HotEps[rng.Intn(len(cfg.HotEps))]}
			}
			reqs = append(reqs, request{Body: encodeBody(s, p), Input: s, Plan: p, MaxErr: maxErr})
		}
	}
	return reqs, nil
}

// fleetWorkload holds the shared pool of gap-free runs the fleet requests
// draw from. Run id is also the run's group value, so a pool run
// fingerprints identically in every request that carries it.
type fleetWorkload struct {
	cfg  config
	seed int64
	pool [][][]float64 // pool[id][row] = aggregate values
	zipf *rand.Zipf
	rng  *rand.Rand
}

func newFleetWorkload(cfg config, seed int64) (*fleetWorkload, error) {
	fw := &fleetWorkload{cfg: cfg, seed: seed, pool: make([][][]float64, cfg.FleetPool)}
	for id := range fw.pool {
		run, err := fleetRun(cfg, mix(seed, streamFleetPool, uint64(id)))
		if err != nil {
			return nil, err
		}
		fw.pool[id] = run
	}
	fw.rng = rand.New(rand.NewSource(mix(seed, streamFleetDraw, 0)))
	fw.zipf = rand.NewZipf(fw.rng, cfg.FleetZipfS, 1, uint64(cfg.FleetPool-1))
	return fw, nil
}

func fleetRun(cfg config, seed int64) ([][]float64, error) {
	s, err := dataset.Mixed(1, cfg.FleetRunRows, cfg.FleetDims, seed)
	if err != nil {
		return nil, err
	}
	run := make([][]float64, len(s.Rows))
	for i, r := range s.Rows {
		run[i] = r.Aggs
	}
	return run, nil
}

// request builds fleet request i: FleetGroups-FleetFresh distinct pool runs
// drawn Zipf-skewed, plus FleetFresh runs no earlier request carried, as
// one grouped series under dist c = FleetC. Requests must be built in
// order: the Zipf draws continue one seeded stream.
func (fw *fleetWorkload) request(i int) (request, error) {
	cfg := fw.cfg
	type group struct {
		id  int64
		run [][]float64
	}
	var groups []group
	seen := map[uint64]bool{}
	for len(groups) < cfg.FleetGroups-cfg.FleetFresh {
		id := fw.zipf.Uint64()
		if !seen[id] {
			seen[id] = true
			groups = append(groups, group{int64(id), fw.pool[id]})
		}
	}
	for j := 0; j < cfg.FleetFresh; j++ {
		fresh := uint64(i*cfg.FleetFresh + j)
		run, err := fleetRun(cfg, mix(fw.seed, streamFleetFresh, fresh))
		if err != nil {
			return request{}, err
		}
		groups = append(groups, group{int64(cfg.FleetPool) + int64(fresh), run})
	}
	slices.SortFunc(groups, func(a, b group) int { return int(a.id - b.id) })

	names := make([]string, cfg.FleetDims)
	for d := range names {
		names[d] = fmt.Sprintf("a%02d", d+1)
	}
	s := pta.NewSeries([]pta.Attribute{{Name: "grp", Kind: temporal.KindInt}}, names)
	for _, g := range groups {
		gid := s.Groups.Intern([]temporal.Datum{temporal.Int(g.id)})
		for t, aggs := range g.run {
			s.Rows = append(s.Rows, pta.Row{Group: gid, Aggs: aggs, T: temporal.Inst(temporal.Chronon(t))})
		}
	}
	p := plan{Strategy: "dist", C: cfg.FleetC}
	return request{Body: encodeBody(s, p), Input: s, Plan: p}, nil
}
