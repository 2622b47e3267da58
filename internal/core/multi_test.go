package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

// solveAll is the serial multi-budget pass: one one-shot Solver over a
// fresh kernel answers every budget.
func solveAll(seq *temporal.Sequence, budgets []Budget, opts Options) ([]*DPResult, error) {
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, err
	}
	return NewKernelSolver(kn, opts, true, true).SolveAll(opts.Ctx, budgets)
}

// TestDPMultiMatchesSingle: one shared matrix pass (Solver.SolveAll) serves
// every budget with the same result as independent PTAc/PTAe evaluations.
func TestDPMultiMatchesSingle(t *testing.T) {
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
		results, err := solveAll(seq, budgets, Options{})
		if err != nil {
			return false
		}
		for i, b := range budgets {
			var want *DPResult
			if !b.ErrorBound {
				want, err = PTAc(seq, b.C, Options{})
			} else {
				want, err = PTAe(seq, b.Eps, Options{})
			}
			if err != nil {
				return false
			}
			got := results[i]
			if got.C != want.C || math.Abs(got.Error-want.Error) > 1e-6*(1+want.Error) {
				return false
			}
			if !got.Sequence.Equal(want.Sequence, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDPMultiInfeasible: a size bound below cmin fails the whole call with
// the typed error.
func TestDPMultiInfeasible(t *testing.T) {
	seq := figure1c()
	_, err := solveAll(seq, []Budget{SizeBudget(seq.CMin() - 1)}, Options{})
	var inf *InfeasibleSizeError
	if err == nil || !asInfeasible(err, &inf) {
		t.Fatalf("want InfeasibleSizeError, got %v", err)
	}
	if inf.CMin != seq.CMin() {
		t.Errorf("CMin = %d, want %d", inf.CMin, seq.CMin())
	}
}

// asInfeasible is a minimal errors.As for the core test (avoiding the
// dependency on the errors package semantics being re-tested here).
func asInfeasible(err error, target **InfeasibleSizeError) bool {
	e, ok := err.(*InfeasibleSizeError)
	if ok {
		*target = e
	}
	return ok
}

// TestPTAeParallelMatchesPTAe: the run-decomposed error-bounded evaluator
// finds the same minimal size and optimal error as the serial PTAe.
func TestPTAeParallelMatchesPTAe(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(40), 1+rng.Intn(2), 0.3)
		for _, eps := range []float64{0, 0.05, rng.Float64(), 1} {
			want, err := PTAe(seq, eps, Options{})
			if err != nil {
				return false
			}
			for _, workers := range []int{1, 4} {
				got, err := PTAeParallel(seq, eps, Options{}, workers)
				if err != nil {
					return false
				}
				if got.C != want.C || math.Abs(got.Error-want.Error) > 1e-6*(1+want.Error) {
					return false
				}
				if got.Sequence.Validate() != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDPCancellation: a canceled context aborts the DP promptly with the
// context error in the chain.
func TestDPCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := randomSequence(rng, 400, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PTAc(seq, 40, Options{Ctx: ctx}); err == nil || !isCanceled(err) {
		t.Errorf("PTAc under canceled ctx: %v", err)
	}
	if _, err := GMS(seq, 40, Options{Ctx: ctx}); err == nil {
		t.Errorf("GMS under canceled ctx: %v", err)
	}
	if _, err := PTAcParallel(seq, 40, Options{Ctx: ctx}, 2); err == nil {
		t.Errorf("PTAcParallel under canceled ctx: %v", err)
	}
	if _, err := solveAll(seq, []Budget{SizeBudget(40)}, Options{Ctx: ctx}); err == nil {
		t.Errorf("multi-budget Solver under canceled ctx: %v", err)
	}
}

func isCanceled(err error) bool {
	for e := err; e != nil; {
		if e == context.Canceled {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TestScratchReuse: evaluations sharing one Scratch across calls (serially)
// keep producing correct results on varying input sizes.
func TestScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sc := &Scratch{}
	for i := 0; i < 20; i++ {
		seq := randomSequence(rng, 5+rng.Intn(60), 1+rng.Intn(2), 0.25)
		cmin := seq.CMin()
		c := cmin + rng.Intn(seq.Len()-cmin+1)
		want, err := PTAc(seq, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := PTAc(seq, c, Options{Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Error-want.Error) > 1e-9*(1+want.Error) || !got.Sequence.Equal(want.Sequence, 1e-9) {
			t.Fatalf("iteration %d: scratch run differs: %v vs %v", i, got.Error, want.Error)
		}
		eps := rng.Float64()
		wantE, err := PTAe(seq, eps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gotE, err := PTAe(seq, eps, Options{Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		if gotE.C != wantE.C || !gotE.Sequence.Equal(wantE.Sequence, 1e-9) {
			t.Fatalf("iteration %d: scratch PTAe differs", i)
		}
	}
}
