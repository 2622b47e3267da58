package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/temporal"
)

// This file implements a divide-and-conquer evaluation of exact PTA that
// makes the structure behind the paper's Section 5.3 pruning explicit:
// non-adjacent tuple pairs split the relation into maximal adjacent runs
// that never interact, so
//
//  1. each run's optimal error curve can be computed independently (and
//     concurrently — a bounded worker pool of per-run Solvers), and
//  2. the global optimum is an allocation of the size budget c over the
//     runs, found by a small dynamic program over run curves:
//
//     A[r][k] = min over j of A[r−1][k−j] + curve_r[j].
//
// The result provably equals PTAc (property-tested); with many short runs
// it does asymptotically less work — per-run curves cost Σ O(q_r²·min(q_r,c))
// versus the monolithic scheme's larger search space — and it uses every
// core. Aggregation groups are a coarsening of runs (every group boundary
// is a run boundary), so this is also the group-parallel execution engine
// behind pta.Engine's WithParallelism. The paper's evaluation is
// single-threaded; this is an engineering extension, reported by the
// `parallel` and `engine` experiments.

// SolveRuns is the one multi-run driver: it answers every budget from the
// per-run error curves src supplies, whether in-process Solvers
// (SolveParallel) or a remote fleet (internal/dist). Size budgets need each
// run's curve only up to c−R+1 rows for R runs (every other run keeps ≥ 1
// tuple), so src is deepened exactly that far. Error budgets deepen
// iteratively from a total size of R+63 (at most n), doubling: a total size
// of K needs curves up to K−R+1 only, so loose bounds that stop at small K
// never pay for full curves, and the geometric growth bounds the total work
// at a small constant of the final round's. The allocation DP over the curves yields
// the optimal error of every total size; each budget takes its size (the
// smallest whose error fits eps·SSEmax, for error bounds), the allocation
// splits it over the runs, and src reports the row ranges each run merges.
// Rows are merged on the global kernel kn, so every source produces
// bit-identical results. Every result carries the stats of the whole pass.
func SolveRuns(ctx context.Context, kn *CostKernel, src RunSource, budgets []Budget) ([]*DPResult, error) {
	n := kn.N()
	targetK, pending := 0, 0
	accept := make([]float64, len(budgets)) // error budgets: acceptance threshold
	maxErr := kn.MaxError()
	for i, b := range budgets {
		if err := checkBudget(kn, b); err != nil {
			return nil, err
		}
		switch {
		case b.ErrorBound && n > 0:
			accept[i] = acceptErrorBound(b.Eps*maxErr, maxErr)
			pending++
		case !b.ErrorBound && b.C < n:
			targetK = max(targetK, b.C)
		}
	}

	R := kn.CMin()
	K := targetK
	if pending > 0 {
		// Coexisting size budgets only ever raise K, never change which k
		// first fits a bound.
		K = max(K, min(n, R+63))
	}
	reached := make([]int, len(budgets)) // error budgets: resolved size; 0 = pending
	var final []float64
	var choice [][]int32
	for K > 0 {
		if err := src.Deepen(ctx, K-R+1); err != nil {
			return nil, err
		}
		final, choice = AllocateCurves(src.Curves(), K)
		for i, b := range budgets {
			if !b.ErrorBound || reached[i] != 0 {
				continue
			}
			for k := R; k <= K; k++ {
				if final[k] <= accept[i] {
					// Curves cover every size ≤ K, so k is the exact minimum.
					reached[i] = k
					pending--
					break
				}
			}
		}
		if pending == 0 {
			break
		}
		if K == n {
			// A[n] = 0 meets every bound unless a source reported a
			// broken curve.
			return nil, fmt.Errorf("core: error bound not reached at full size %d", n)
		}
		K = min(n, 2*K)
	}

	stats := src.Stats()
	results := make([]*DPResult, len(budgets))
	for i, b := range budgets {
		k := b.C
		if b.ErrorBound {
			k = reached[i]
		} else if k >= n {
			// ρ(s, c) = s when |s| ≤ c: nothing to merge.
			results[i] = &DPResult{Sequence: kn.Sequence().Clone(), C: n, Stats: stats}
			continue
		}
		if k == 0 {
			// An error bound over the empty relation.
			results[i] = &DPResult{Sequence: kn.Sequence().WithRows(nil), Stats: stats}
			continue
		}
		alloc, err := splitAllocation(choice, k)
		if err != nil {
			return nil, err
		}
		rows := make([]temporal.SeqRow, 0, k)
		for r, a := range alloc {
			base := len(rows)
			rows = rows[:base+a]
			src.Ranges(r, a, func(t, first, last int) { rows[base+t] = kn.MergeRange(first, last) })
		}
		results[i] = &DPResult{Sequence: kn.Sequence().WithRows(rows), C: k, Error: final[k], Stats: stats}
	}
	return results, nil
}

// RunSource supplies per-run error curves to SolveRuns for the maximal
// adjacent runs of the kernel's input, in order.
type RunSource interface {
	// Deepen extends every run's curve to at least min(run length, kcap)
	// sizes.
	Deepen(ctx context.Context, kcap int) error
	// Curves returns the per-run curves: curves[r][k−1] is the minimal
	// error of reducing run r to k tuples.
	Curves() [][]float64
	// Ranges reports the tuples t = 0..k−1 of run r's optimal k-tuple
	// reduction as global 1-based inclusive row ranges, in any order.
	Ranges(r, k int, emit func(t, first, last int))
	// Stats reports the fill work behind the curves so far.
	Stats() DPStats
}

// SolveParallel answers budgets with the run decomposition on workers
// goroutines (0 = GOMAXPROCS): one one-shot Solver per run, deepened on a
// bounded worker pool, recombined by SolveRuns. The caller's Scratch serves
// the global kernel only; the run solvers own their buffers, since they
// outlive each deepening round and may move between goroutines.
func SolveParallel(seq *temporal.Sequence, budgets []Budget, opts Options, workers int) ([]*DPResult, error) {
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, err
	}
	opts.Scratch = nil
	src := &runSolvers{seq: seq, opts: opts, workers: workers}
	lo := 1
	for _, g := range kn.Gaps() {
		src.lo, src.hi = append(src.lo, lo), append(src.hi, g)
		lo = g + 1
	}
	src.lo, src.hi = append(src.lo, lo), append(src.hi, kn.N())
	src.svs = make([]*Solver, len(src.lo))
	return SolveRuns(opts.Ctx, kn, src, budgets)
}

// PTAcParallel evaluates size-bounded PTA exactly, decomposing the work
// over maximal adjacent runs and computing run curves on workers goroutines
// (0 = GOMAXPROCS). It returns the same optimal reduction as PTAc.
func PTAcParallel(seq *temporal.Sequence, c int, opts Options, workers int) (*DPResult, error) {
	return solveParallelOne(seq, SizeBudget(c), opts, workers)
}

// PTAeParallel evaluates error-bounded PTA exactly with the same run
// decomposition: the smallest total size whose optimal error fits
// eps·SSEmax wins — the same minimization as PTAe (Definition 7), parallel
// over runs.
func PTAeParallel(seq *temporal.Sequence, eps float64, opts Options, workers int) (*DPResult, error) {
	return solveParallelOne(seq, ErrorBudget(eps), opts, workers)
}

func solveParallelOne(seq *temporal.Sequence, b Budget, opts Options, workers int) (*DPResult, error) {
	res, err := SolveParallel(seq, []Budget{b}, opts, workers)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runSolvers is the in-process RunSource: one Solver per maximal adjacent
// run over the run's own kernel, built on first use and extended in place
// by later deepening rounds.
type runSolvers struct {
	seq     *temporal.Sequence
	opts    Options // no Scratch: the solvers outlive every round
	workers int
	lo, hi  []int // 1-based row bounds of each run, inclusive
	svs     []*Solver
}

// Deepen extends every run's solver to min(run length, kcap) rows on a
// pool of workers goroutines. Solvers already that deep are untouched.
func (rs *runSolvers) Deepen(ctx context.Context, kcap int) error {
	workers := rs.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(rs.svs))
	jobs := make(chan int)
	errs := make([]error, len(rs.svs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				errs[r] = rs.deepen(ctx, r, kcap)
			}
		}()
	}
	for r := range rs.svs {
		jobs <- r
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (rs *runSolvers) deepen(ctx context.Context, r, kcap int) error {
	if rs.svs[r] == nil {
		kn, err := NewKernel(rs.seq.WithRows(rs.seq.Rows[rs.lo[r]-1:rs.hi[r]]), rs.opts)
		if err != nil {
			return err
		}
		rs.svs[r] = NewKernelSolver(kn, rs.opts, true, true)
	}
	return rs.svs[r].Deepen(ctx, kcap)
}

func (rs *runSolvers) Curves() [][]float64 {
	curves := make([][]float64, len(rs.svs))
	for r, sv := range rs.svs {
		curves[r] = sv.rowErr[1 : sv.filled+1]
	}
	return curves
}

func (rs *runSolvers) Ranges(r, k int, emit func(t, first, last int)) {
	off := rs.lo[r] - 1
	rs.svs[r].st.backtrack(k, func(t, first, last int) { emit(t, off+first, off+last) })
}

func (rs *runSolvers) Stats() DPStats {
	var st DPStats
	for _, sv := range rs.svs {
		if sv != nil {
			st.Cells += sv.st.stats.Cells
			st.InnerIters += sv.st.stats.InnerIters
			st.EnvelopeSkips += sv.st.stats.EnvelopeSkips
		}
	}
	return st
}

// AllocateCurves spends total sizes 1..kmax over per-run error curves with
// the combination DP A[r][k] = min over j of A[r−1][k−j] + curve_r[j],
// taking the smallest j on ties (strict improvement only). It returns the
// final row (the minimal total error of reducing the whole relation to k
// tuples; Inf where infeasible) and the per-run choice matrices consumed by
// splitAllocation. SolveRuns recombines every source's curves through it.
func AllocateCurves(curves [][]float64, kmax int) (final []float64, choice [][]int32) {
	const unset = -1
	prev := make([]float64, kmax+1)
	cur := make([]float64, kmax+1)
	choice = make([][]int32, len(curves)) // choice[r][k] = tuples given to run r
	for k := range prev {
		prev[k] = Inf
	}
	prev[0] = 0
	minNeeded := 0
	for r, curve := range curves {
		choice[r] = make([]int32, kmax+1)
		for k := range cur {
			cur[k] = Inf
			choice[r][k] = unset
		}
		maxLen := len(curve)
		minNeeded++ // every run contributes ≥ 1 tuple
		for k := minNeeded; k <= kmax; k++ {
			for j := 1; j <= maxLen && j < k+1; j++ {
				if prev[k-j] == Inf {
					continue
				}
				if e := prev[k-j] + curve[j-1]; e < cur[k] {
					cur[k] = e
					choice[r][k] = int32(j)
				}
			}
		}
		prev, cur = cur, prev
	}
	return prev, choice
}

// splitAllocation walks the choice matrices of AllocateCurves backwards from
// a total size k and returns how many tuples each run receives (the entries
// sum to k).
func splitAllocation(choice [][]int32, k int) ([]int, error) {
	const unset = -1
	alloc := make([]int, len(choice))
	for r := len(choice) - 1; r >= 0; r-- {
		j := int(choice[r][k])
		if j == unset {
			return nil, fmt.Errorf("core: internal error reconstructing parallel DP at run %d", r)
		}
		alloc[r] = j
		k -= j
	}
	return alloc, nil
}
