package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist/disttest"
	"repro/internal/serve"
	"repro/internal/temporal"
	"repro/pta"
)

// edgeSeries is three gap-separated runs with small integer values, so
// every merge cost the edge cases reach is exact and the optimal errors
// compare bit for bit across evaluation orders: groups A and B are the
// plateau pair [1 1 5 5] (a size budget that gives one of them an extra
// tuple ties across runs), group C is [3 1 3] (a two-tuple reduction ties
// within the run).
func edgeSeries() *pta.Series {
	s := pta.NewSeries([]pta.Attribute{{Name: "g", Kind: temporal.KindString}}, []string{"v"})
	for _, g := range []struct {
		name string
		vals []float64
	}{{"A", []float64{1, 1, 5, 5}}, {"B", []float64{1, 1, 5, 5}}, {"C", []float64{3, 1, 3}}} {
		gid := s.Groups.Intern([]temporal.Datum{temporal.String(g.name)})
		for i, v := range g.vals {
			s.Rows = append(s.Rows, pta.Row{Group: gid, Aggs: []float64{v},
				T: pta.Interval{Start: pta.Chronon(i), End: pta.Chronon(i)}})
		}
	}
	return s
}

// outcome is what every exact entry point must agree on: the size, the
// error's bits and the class of a failure.
type outcome struct {
	c    int
	bits uint64
	err  string
}

func (o outcome) String() string {
	if o.err != "" {
		return o.err
	}
	return fmt.Sprintf("C=%d error=%v", o.c, math.Float64frombits(o.bits))
}

// classify reduces an evaluation to its outcome. Failures keep only their
// typed identity: an infeasible size with its cmin, the numeric domain, or
// an untyped error.
func classify(c int, e float64, rows int, err error) outcome {
	var inf *core.InfeasibleSizeError
	var pinf *pta.InfeasibleBudgetError
	switch {
	case errors.As(err, &inf):
		return outcome{err: fmt.Sprintf("infeasible(cmin=%d)", inf.CMin)}
	case errors.As(err, &pinf):
		return outcome{err: fmt.Sprintf("infeasible(cmin=%d)", pinf.CMin)}
	case errors.Is(err, core.ErrNumericDomain):
		return outcome{err: "numeric domain"}
	case err != nil:
		return outcome{err: "untyped error"}
	case rows != c:
		return outcome{err: fmt.Sprintf("%d rows for C=%d", rows, c)}
	}
	return outcome{c: c, bits: math.Float64bits(e)}
}

func fromCore(res *core.DPResult, err error) outcome {
	if err != nil {
		return classify(0, 0, 0, err)
	}
	return classify(res.C, res.Error, res.Sequence.Len(), nil)
}

func fromPTA(res *pta.Result, err error) outcome {
	if err != nil {
		return classify(0, 0, 0, err)
	}
	return classify(res.C, res.Error, res.Series.Len(), nil)
}

// TestEdgeCaseConformance runs the edge cases every exact driver handles —
// the empty series, c ≥ n, c < cmin, eps = 0, eps = 1 and plateau ties —
// through every exact entry point and requires one outcome per case.
func TestEdgeCaseConformance(t *testing.T) {
	cluster := disttest.NewCluster(t, 2, serve.Config{})
	co := newTestCoordinator(t, cluster)
	serial := mustEngine(t)
	par := mustEngine(t, pta.WithParallelism(3))
	ctx := context.Background()

	type entry struct {
		name     string
		nonEmpty bool // the entry refuses an empty series by contract
		run      func(s *pta.Series, b pta.Budget) outcome
	}
	exact := func(b pta.Budget, size func(c int) (*core.DPResult, error), errb func(eps float64) (*core.DPResult, error)) outcome {
		if b.Kind() == pta.BudgetSize {
			return fromCore(size(b.C()))
		}
		return fromCore(errb(b.Eps()))
	}
	entries := []entry{
		{name: "core.PTAc/PTAe", run: func(s *pta.Series, b pta.Budget) outcome {
			return exact(b,
				func(c int) (*core.DPResult, error) { return core.PTAc(s, c, core.Options{}) },
				func(eps float64) (*core.DPResult, error) { return core.PTAe(s, eps, core.Options{}) })
		}},
		{name: "core.PTAcParallel/PTAeParallel", run: func(s *pta.Series, b pta.Budget) outcome {
			return exact(b,
				func(c int) (*core.DPResult, error) { return core.PTAcParallel(s, c, core.Options{}, 2) },
				func(eps float64) (*core.DPResult, error) { return core.PTAeParallel(s, eps, core.Options{}, 2) })
		}},
		{name: "Engine.Compress serial", run: func(s *pta.Series, b pta.Budget) outcome {
			return fromPTA(serial.Compress(ctx, s, pta.Plan{Strategy: "ptac", Budget: b}))
		}},
		{name: "Engine.Compress parallel", run: func(s *pta.Series, b pta.Budget) outcome {
			return fromPTA(par.Compress(ctx, s, pta.Plan{Strategy: "ptae", Budget: b}))
		}},
		{name: "CompressMany serial", run: func(s *pta.Series, b pta.Budget) outcome {
			return many(serial.CompressMany(ctx, s, []pta.Plan{{Strategy: "ptac", Budget: b}, {Strategy: "ptae", Budget: pta.ErrorBound(1)}}))
		}},
		{name: "CompressMany parallel", run: func(s *pta.Series, b pta.Budget) outcome {
			return many(par.CompressMany(ctx, s, []pta.Plan{{Strategy: "ptac", Budget: b}, {Strategy: "ptae", Budget: pta.ErrorBound(1)}}))
		}},
		{name: "MatrixSet", nonEmpty: true, run: func(s *pta.Series, b pta.Budget) outcome {
			set, err := pta.NewMatrixSet(s, "ptac", pta.Options{})
			if err != nil {
				return classify(0, 0, 0, err)
			}
			return fromPTA(set.Compress(ctx, b))
		}},
		{name: "dist", run: func(s *pta.Series, b pta.Budget) outcome {
			return fromPTA(co.Compress(ctx, s, b, pta.Options{}))
		}},
	}
	for _, mode := range []core.PruneMode{core.PruneNone, core.PruneIMax, core.PruneJMin} {
		entries = append(entries, entry{name: "core ablation " + mode.String(), run: func(s *pta.Series, b pta.Budget) outcome {
			return exact(b,
				func(c int) (*core.DPResult, error) { return core.PTAcAblation(s, c, core.Options{}, mode) },
				func(eps float64) (*core.DPResult, error) { return core.PTAeAblation(s, eps, core.Options{}, mode) })
		}})
	}

	s := edgeSeries()
	empty := s.WithRows(nil)
	// The merge costs in float64 evaluation order: A or B whole is
	// 52 − 12²/4 = 16, C whole is 19 − 7²/3.
	runAB, l, sumC := 16.0, 3.0, 7.0
	runC := 19 - sumC*sumC/l
	cases := []struct {
		name   string
		s      *pta.Series
		b      pta.Budget
		expect string // the agreed outcome, pinned
	}{
		{"empty size", empty, pta.Size(3), "untyped error"},
		{"empty error", empty, pta.ErrorBound(0.5), "C=0 error=0"},
		{"c > n", s, pta.Size(s.Len() + 2), "C=11 error=0"},
		{"c = n", s, pta.Size(s.Len()), "C=11 error=0"},
		{"c < cmin", s, pta.Size(2), "infeasible(cmin=3)"},
		{"eps = 0", s, pta.ErrorBound(0), "C=7 error=0"},
		{"eps = 1", s, pta.ErrorBound(1), fmt.Sprintf("C=3 error=%v", runAB+runAB+runC)},
		{"tie across runs", s, pta.Size(4), fmt.Sprintf("C=4 error=%v", runAB+runC)},
		{"tie within a run", s, pta.Size(6), "C=6 error=2"},
	}
	for _, tc := range cases {
		for _, e := range entries {
			if e.nonEmpty && tc.s.Len() == 0 {
				continue
			}
			if got := e.run(tc.s, tc.b).String(); got != tc.expect {
				t.Errorf("%s via %s: %s, want %s", tc.name, e.name, got, tc.expect)
			}
		}
	}
}

// many reports the first result of a CompressMany call.
func many(res []*pta.Result, err error) outcome {
	if err != nil {
		return fromPTA(nil, err)
	}
	return fromPTA(res[0], nil)
}

func mustEngine(t *testing.T, opts ...pta.Option) *pta.Engine {
	t.Helper()
	e, err := pta.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestNumericDomainOverDist: a value whose square overflows float64 (or a
// NaN) fails the coordinator with ErrNumericDomain before any scatter, and
// a serving front that routes "dist" maps it to 422 numeric_domain.
func TestNumericDomainOverDist(t *testing.T) {
	cluster := disttest.NewCluster(t, 2, serve.Config{})
	co := newTestCoordinator(t, cluster)
	for _, v := range []float64{1e200, math.NaN()} {
		s := edgeSeries()
		s.Rows[5].Aggs[0] = v
		for _, b := range []pta.Budget{pta.Size(4), pta.ErrorBound(0.2)} {
			if _, err := co.Compress(context.Background(), s, b, pta.Options{}); !errors.Is(err, core.ErrNumericDomain) {
				t.Errorf("dist %v with value %v: %v, want ErrNumericDomain", b, v, err)
			}
		}
	}
	if got := co.m.shards.Value(); got != 0 {
		t.Errorf("out-of-domain input scattered %d shard requests", got)
	}

	prev := Activate(co)
	defer Activate(prev)
	front, err := serve.New(serve.Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()
	body := `{"series":{"agg_names":["v"],"rows":[` +
		`{"aggs":[1],"start":0,"end":0},{"aggs":[1e200],"start":1,"end":1},{"aggs":[3],"start":2,"end":2}]},` +
		`"plan":{"strategy":"dist","budget":"c=2"}}`
	resp, err := http.Post(ts.URL+"/v1/compress", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(raw), `"numeric_domain"`) {
		t.Fatalf("dist over HTTP: status %d: %s", resp.StatusCode, raw)
	}
}
