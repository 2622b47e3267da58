package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/temporal"
)

// bitIdenticalRows reports whether two sequences over the same group
// dictionary carry bit-for-bit equal rows — the strongest equality the
// multi-budget pass promises against the single-budget evaluators.
func bitIdenticalRows(a, b *temporal.Sequence) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Group != rb.Group || ra.T != rb.T || len(ra.Aggs) != len(rb.Aggs) {
			return false
		}
		for d := range ra.Aggs {
			if math.Float64bits(ra.Aggs[d]) != math.Float64bits(rb.Aggs[d]) {
				return false
			}
		}
	}
	return true
}

// TestDPMultiParallelMatchesSingleBudget: one shared-curve pass of the run
// front (SolveParallel) answers a mixed batch of size and error budgets
// bit-identically to running PTAcParallel/PTAeParallel per budget — the amortization changes cost,
// never results.
func TestDPMultiParallelMatchesSingleBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(40), 1+rng.Intn(2), 0.3)
		cmin := seq.CMin()
		n := seq.Len()
		budgets := []Budget{
			SizeBudget(cmin),
			SizeBudget(cmin + rng.Intn(n-cmin+1)),
			SizeBudget(n),
			ErrorBudget(0),
			ErrorBudget(rng.Float64()),
			ErrorBudget(1),
		}
		got, err := SolveParallel(seq, budgets, Options{}, 3)
		if err != nil {
			return false
		}
		for i, b := range budgets {
			var want *DPResult
			if !b.ErrorBound {
				want, err = PTAcParallel(seq, b.C, Options{}, 2)
			} else {
				want, err = PTAeParallel(seq, b.Eps, Options{}, 2)
			}
			if err != nil {
				return false
			}
			if got[i].C != want.C {
				return false
			}
			if math.Float64bits(got[i].Error) != math.Float64bits(want.Error) {
				return false
			}
			if !bitIdenticalRows(got[i].Sequence, want.Sequence) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDPMultiParallelAgreesWithSerialMulti: the run front's multi-budget
// pass optimizes the same objective as the serial Solver's — equal optimal errors and
// sizes on random gapped inputs.
func TestDPMultiParallelAgreesWithSerialMulti(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(30), 1+rng.Intn(2), 0.25)
		cmin := seq.CMin()
		n := seq.Len()
		budgets := []Budget{
			SizeBudget(cmin + rng.Intn(n-cmin+1)),
			ErrorBudget(rng.Float64()),
		}
		got, err := SolveParallel(seq, budgets, Options{}, 4)
		if err != nil {
			return false
		}
		want, err := solveAll(seq, budgets, Options{})
		if err != nil {
			return false
		}
		for i := range budgets {
			if got[i].C != want[i].C {
				return false
			}
			if math.Abs(got[i].Error-want[i].Error) > 1e-6*(1+want[i].Error) {
				return false
			}
			if got[i].Sequence.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDPMultiParallelSharedCurveStats: every result of one batch reports
// the same fill counters — the cost of the one shared curve set — and that
// cost does not grow with the number of budgets served.
func TestDPMultiParallelSharedCurveStats(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seq := randomSequence(rng, 40, 1, 0.3)
	cmin := seq.CMin()
	n := seq.Len()
	one, err := SolveParallel(seq, []Budget{SizeBudget(n - 1)}, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []Budget{SizeBudget(n - 1), SizeBudget(cmin), SizeBudget((cmin + n) / 2), SizeBudget(cmin + 1)}
	many, err := SolveParallel(seq, budgets, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range many {
		if many[i].Stats != many[0].Stats {
			t.Errorf("result %d stats %+v != shared %+v", i, many[i].Stats, many[0].Stats)
		}
	}
	if one[0].Stats.Cells == 0 {
		t.Fatal("single-budget pass reports zero cells")
	}
	if many[0].Stats.Cells != one[0].Stats.Cells {
		t.Errorf("batch of %d budgets filled %d cells, single deepest budget %d — curves not shared",
			len(budgets), many[0].Stats.Cells, one[0].Stats.Cells)
	}

	// The shared stats are the whole DPStats of the run solvers, envelope
	// skips included: on mixed-shape runs long enough for the monotone fill
	// they equal the sum of the per-run PTAc stats at the truncated depth.
	mixed, err := dataset.Mixed(2, 300, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	const c = 24
	par, err := PTAcParallel(mixed, c, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	kn, err := NewKernel(mixed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum DPStats
	lo := 1
	for _, hi := range append(append([]int(nil), kn.Gaps()...), kn.N()) {
		run := mixed.WithRows(mixed.Rows[lo-1 : hi])
		res, err := PTAc(run, min(hi-lo+1, c-kn.CMin()+1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		sum.Cells += res.Stats.Cells
		sum.InnerIters += res.Stats.InnerIters
		sum.EnvelopeSkips += res.Stats.EnvelopeSkips
		lo = hi + 1
	}
	if par.Stats.EnvelopeSkips == 0 || par.Stats != sum {
		t.Errorf("PTAcParallel stats %+v, want the per-run sum %+v with envelope skips", par.Stats, sum)
	}
}

// TestDPMultiParallelValidation mirrors the serial Solver's argument
// checks: infeasible sizes and out-of-range bounds fail up front.
func TestDPMultiParallelValidation(t *testing.T) {
	seq := figure1c()
	if _, err := SolveParallel(seq, []Budget{SizeBudget(2)}, Options{}, 2); err == nil {
		t.Error("c below cmin should fail")
	}
	if _, err := SolveParallel(seq, []Budget{ErrorBudget(1.5)}, Options{}, 2); err == nil {
		t.Error("eps above 1 should fail")
	}
	res, err := SolveParallel(seq, []Budget{SizeBudget(seq.Len()), ErrorBudget(0.2)}, Options{}, 2)
	if err != nil || res[0].C != seq.Len() {
		t.Errorf("c = n: %+v, %v", res, err)
	}
	empty := seq.WithRows(nil)
	eres, err := SolveParallel(empty, []Budget{ErrorBudget(0.5)}, Options{}, 2)
	if err != nil || eres[0].C != 0 {
		t.Errorf("empty relation: %+v, %v", eres, err)
	}
}
