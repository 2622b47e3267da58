package core

import (
	"context"
	"fmt"

	"repro/internal/temporal"
)

// Budget is one exact-evaluation budget: a size bound (at most C tuples)
// or, when ErrorBound is set, an error bound (at most Eps·SSEmax introduced
// error, 0 ≤ Eps ≤ 1).
type Budget struct {
	C          int
	Eps        float64
	ErrorBound bool
}

// SizeBudget returns the size bound c.
func SizeBudget(c int) Budget { return Budget{C: c} }

// ErrorBudget returns the error bound eps.
func ErrorBudget(eps float64) Budget { return Budget{Eps: eps, ErrorBound: true} }

// checkBudget validates a budget against the kernel's input — the argument
// errors every exact evaluator reports, serial (Solver) and run-decomposed
// (SolveRuns) alike.
func checkBudget(kn *CostKernel, b Budget) error {
	switch {
	case b.ErrorBound:
		if !(b.Eps >= 0 && b.Eps <= 1) {
			return fmt.Errorf("core: error bound %v outside [0, 1]", b.Eps)
		}
	case kn.N() == 0:
		if b.C != 0 {
			return fmt.Errorf("core: size bound %d for an empty relation", b.C)
		}
	case b.C < kn.CMin():
		return &InfeasibleSizeError{C: b.C, CMin: kn.CMin()}
	}
	return nil
}

// Solver is the single-run exact DP driver: it fills the error matrix E and
// the split-point matrix J row by row over one cost kernel and answers size
// and error budgets from them (PTAc, Fig. 7, and PTAe, Fig. 8, differ only
// in the row where filling stops). The error column E[k][n] and every
// split-point row J[k] computed so far are retained, so answering a new
// budget reuses all rows filled by earlier budgets and only extends the
// matrices when a deeper row is needed: several budgets on one Solver cost
// one fill to the deepest row any of them needs (SolveAll), and a retained
// Solver is the unit a serving layer caches per hot series — a repeated
// budget costs one backtrack, no DP fill at all.
//
// A Solver is NOT safe for concurrent use; callers serialize access (the
// serve-layer cache guards each entry with a mutex). The context travels per
// call, so one cached Solver serves requests with different deadlines.
type Solver struct {
	kn     *CostKernel
	st     *dpState
	rowErr []float64 // rowErr[k] = E[k][n] for k = 1..filled
	filled int
	bound  float64 // SSEmax, resolved lazily for error budgets
	hasMax bool
	lazy   SplitRowSource // non-nil after RestoreLazy; rows 1..restored may be unmaterialized
}

// NewSolver builds a retained solver for a non-empty sequence with the
// given pruning flags (the two Section 5.3 bounds of a PruneMode).
// Options.Fill selects the row-fill algorithm; every algorithm fills
// bitwise-identical matrices, so cached solvers built with different fills
// stay interchangeable. The options' Ctx and Scratch are ignored: rows and
// kernel slabs must outlive any single call, so the solver always owns its
// buffers.
func NewSolver(seq *temporal.Sequence, opts Options, pruneI, pruneJ bool) (*Solver, error) {
	if seq.Len() == 0 {
		return nil, fmt.Errorf("core: solver over an empty relation")
	}
	opts.Ctx, opts.Scratch = nil, nil
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, err
	}
	return newSolver(kn, opts, pruneI, pruneJ, true), nil
}

// NewKernelSolver builds a one-shot solver over a prebuilt kernel (which
// may describe an empty relation): callers that answer several budget
// groups of one series (pta's Engine.CompressMany) build the kernel once
// and share its prefix slabs across every group's solver. opts must be the
// options the kernel was built with (weights are baked into the kernel).
// When opts.Scratch is set, the solver borrows its row buffers, so it must
// not outlive the caller's use of that Scratch.
func NewKernelSolver(kn *CostKernel, opts Options, pruneI, pruneJ bool) *Solver {
	return newSolver(kn, opts, pruneI, pruneJ, false)
}

// newSolver resolves the fill and the buffer ownership from one fact:
// whether the solver is retained beyond the call that builds it. A retained
// solver answers rows one at a time (Deepen) across calls, where the batch
// fills would redo their whole-row setup per row, so FillAuto takes the
// online frontier fill built for exactly this shape; its rows must outlive
// any Scratch. A one-shot solver keeps FillAuto's batch resolution (pruned
// or dc, see FillAlgo) and may borrow opts.Scratch. Matrices are
// bitwise-identical across fills, so the swap is invisible to cache keys
// (FillAuto shares the DPClass) and to results.
func newSolver(kn *CostKernel, opts Options, pruneI, pruneJ, retained bool) *Solver {
	if retained {
		opts.Scratch = nil
		if opts.Fill == FillAuto && pruneI && pruneJ && kn.N() >= fillAutoThreshold {
			opts.Fill = FillOnline
		}
	}
	return &Solver{
		kn:     kn,
		st:     newDPState(kn, opts, pruneI, pruneJ, true),
		rowErr: make([]float64, kn.N()+1),
	}
}

// N returns the input size n.
func (sv *Solver) N() int { return sv.kn.N() }

// Rows returns how many matrix rows have been filled so far.
func (sv *Solver) Rows() int { return sv.filled }

// Stats reports the cumulative work of every row filled so far (not a
// per-budget share — a fully warm solver answers budgets with zero new
// cells).
func (sv *Solver) Stats() DPStats { return sv.st.stats }

// MemBytes estimates the retained matrix memory: the split-point rows
// dominate (one int32 per column per filled row).
func (sv *Solver) MemBytes() int64 {
	n := int64(sv.kn.N() + 1)
	return int64(sv.filled)*n*4 + // J rows
		3*n*8 // prevE, curE, rowErr
}

// Fill returns the concrete row-fill algorithm the solver resolved to
// (never FillAuto).
func (sv *Solver) Fill() FillAlgo { return sv.st.algo }

// MonotoneCoverage reports the kernel's certified dispatch coverage — the
// fraction of rows the monotone fills accelerate. The certification is
// computed at most once per solver lifetime (see CostKernel), so scraping
// this per request is free.
func (sv *Solver) MonotoneCoverage() float64 { return sv.kn.MonotoneCoverage() }

// Deepen fills matrix rows up to k without answering a budget: the explicit
// resume entry point for callers that pace the fill themselves (a serving
// layer warming a cache entry between requests, the streaming evaluators
// extending retained rows as data arrives). Already-filled rows are never
// recomputed; Deepen(ctx, k) for k ≤ Rows() is a no-op.
func (sv *Solver) Deepen(ctx context.Context, k int) error {
	if k > sv.kn.N() {
		k = sv.kn.N()
	}
	return sv.ensure(ctx, k)
}

// ensure fills rows filled+1..k under ctx. Rows are filled strictly in
// order; already-filled rows are never recomputed.
func (sv *Solver) ensure(ctx context.Context, k int) error {
	sv.st.opts.Ctx = ctx
	for next := sv.filled + 1; next <= k; next++ {
		e, err := sv.st.fillRow(next)
		if err != nil {
			return err
		}
		sv.rowErr[next] = e
		sv.filled = next
	}
	return nil
}

// SolveSize answers a size budget c: the minimal-error reduction to at most
// c tuples, reusing every previously filled row.
func (sv *Solver) SolveSize(ctx context.Context, c int) (*DPResult, error) {
	return sv.Solve(ctx, SizeBudget(c))
}

// SolveError answers an error budget eps ∈ [0, 1]: the smallest k whose
// reduction introduces at most eps·SSEmax error. Rows filled while searching
// are retained for later budgets.
func (sv *Solver) SolveError(ctx context.Context, eps float64) (*DPResult, error) {
	return sv.Solve(ctx, ErrorBudget(eps))
}

// Solve answers one budget. It is the one place a budget becomes a matrix
// row: a size bound c selects row c (the input itself when c ≥ n), an error
// bound the first row whose E[k][n] fits eps·SSEmax; rows are filled only
// as far as that search needs and the reduction is rebuilt by following the
// split points back from cell (k, n) (Example 11).
func (sv *Solver) Solve(ctx context.Context, b Budget) (*DPResult, error) {
	if err := checkBudget(sv.kn, b); err != nil {
		return nil, err
	}
	n := sv.kn.N()
	k := b.C
	if b.ErrorBound {
		if !sv.hasMax {
			sv.bound = sv.kn.MaxError()
			sv.hasMax = true
		}
		// E[n][n] = 0 fits every bound, so the search stops by row n.
		bound := acceptErrorBound(b.Eps*sv.bound, sv.bound)
		for k = min(n, 1); k < n; k++ {
			if err := sv.ensure(ctx, k); err != nil {
				return nil, err
			}
			if sv.rowErr[k] <= bound {
				break
			}
		}
	} else if k >= n {
		// ρ(s, c) = s when |s| ≤ c: nothing to merge.
		return &DPResult{Sequence: sv.kn.Sequence().Clone(), C: n, Stats: sv.st.stats}, nil
	}
	if err := sv.ensure(ctx, k); err != nil {
		return nil, err
	}
	if err := sv.materialize(k); err != nil {
		return nil, err
	}
	rows := make([]temporal.SeqRow, k)
	sv.st.backtrack(k, func(t, first, last int) { rows[t] = sv.kn.MergeRange(first, last) })
	return &DPResult{
		Sequence: sv.kn.Sequence().WithRows(rows),
		C:        k,
		Error:    sv.rowErr[k],
		Stats:    sv.st.stats,
	}, nil
}

// SolveAll answers every budget from the one solver and stamps each result
// with the stats of the whole pass: the rows are filled once, to the
// deepest row any budget needs, which is what makes serving several
// resolutions of one series cheap. All budgets are validated before any row
// is filled.
func (sv *Solver) SolveAll(ctx context.Context, budgets []Budget) ([]*DPResult, error) {
	for _, b := range budgets {
		if err := checkBudget(sv.kn, b); err != nil {
			return nil, err
		}
	}
	results := make([]*DPResult, len(budgets))
	for i, b := range budgets {
		res, err := sv.Solve(ctx, b)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	for _, res := range results {
		res.Stats = sv.st.stats
	}
	return results, nil
}

// SolverState is the portable warm state of a Solver: every filled
// split-point row, the per-row errors and the last error row — everything a
// fresh Solver over the same sequence and options needs to answer budgets
// (and resume deeper fills) without recomputing a single cell. It is the
// payload a persistent matrix-cache tier serializes; the caller guarantees
// the sequence identity (the serve layer keys spill files by content
// fingerprint), Restore only validates the shapes.
type SolverState struct {
	N      int       // input size the rows were filled for
	Filled int       // rows 1..Filled are present
	RowErr []float64 // RowErr[k-1] = E[k][n], len Filled
	LastE  []float64 // E[Filled][0..n], len n+1; the resume row
	Splits []int32   // J rows, row-major: Splits[(k-1)*(n+1)+i] = J[k][i]
	Bound  float64   // SSEmax if HasMax (error-budget normalization)
	HasMax bool
}

// State snapshots the filled rows. The returned slices are copies; the
// solver may keep filling afterwards. A lazily restored solver materializes
// every outstanding row first, so the error surfaces here when the backing
// store has gone bad rather than as a torn snapshot.
func (sv *Solver) State() (*SolverState, error) {
	if err := sv.materialize(sv.filled); err != nil {
		return nil, err
	}
	n := sv.kn.N()
	st := &SolverState{
		N:      n,
		Filled: sv.filled,
		RowErr: append([]float64(nil), sv.rowErr[1:sv.filled+1]...),
		Bound:  sv.bound,
		HasMax: sv.hasMax,
	}
	if sv.filled > 0 {
		st.LastE = append([]float64(nil), sv.st.curE...)
		st.Splits = make([]int32, sv.filled*(n+1))
		for k := 0; k < sv.filled; k++ {
			copy(st.Splits[k*(n+1):(k+1)*(n+1)], sv.st.splits[k])
		}
	}
	return st, nil
}

// Restore injects a snapshot into a freshly built solver (zero rows
// filled). It validates every shape and every split-point value so a
// corrupt snapshot fails cleanly instead of panicking rows later; on error
// the solver is unchanged and still usable cold.
func (sv *Solver) Restore(st *SolverState) error {
	n := sv.kn.N()
	switch {
	case sv.filled != 0:
		return fmt.Errorf("core: restore into a solver with %d filled rows", sv.filled)
	case st.N != n:
		return fmt.Errorf("core: snapshot n=%d, solver n=%d", st.N, n)
	case st.Filled < 1 || st.Filled > n:
		return fmt.Errorf("core: snapshot filled=%d outside 1..%d", st.Filled, n)
	case len(st.RowErr) != st.Filled:
		return fmt.Errorf("core: snapshot has %d row errors, want %d", len(st.RowErr), st.Filled)
	case len(st.LastE) != n+1:
		return fmt.Errorf("core: snapshot last row has %d cells, want %d", len(st.LastE), n+1)
	case len(st.Splits) != st.Filled*(n+1):
		return fmt.Errorf("core: snapshot has %d split cells, want %d", len(st.Splits), st.Filled*(n+1))
	}
	for _, j := range st.Splits {
		if j < 0 || int(j) > n {
			return fmt.Errorf("core: snapshot split point %d outside 0..%d", j, n)
		}
	}
	// The split rows become views into one retained slab, matching the
	// per-row slices fillRow appends.
	slab := append([]int32(nil), st.Splits...)
	sv.st.splits = sv.st.splits[:0]
	for k := 0; k < st.Filled; k++ {
		sv.st.splits = append(sv.st.splits, slab[k*(n+1):(k+1)*(n+1)])
	}
	copy(sv.st.curE, st.LastE) // fillRow(Filled+1) swaps this in as the previous row
	copy(sv.rowErr[1:], st.RowErr)
	sv.filled = st.Filled
	sv.bound, sv.hasMax = st.Bound, st.HasMax
	return nil
}

// SplitRowSource supplies individual restored split-point rows on demand:
// the lazy counterpart of SolverState.Splits, backed by an mmap'd spill file
// in the serve layer so a huge warm matrix costs page faults proportional to
// the rows a budget actually walks. SplitRow returns J[k][0..n] for a
// 1-based k ≤ the restored Filled; implementations validate their own
// framing (CRCs) and return an error for rows they can no longer produce.
type SplitRowSource interface {
	SplitRow(k int) ([]int32, error)
}

// WarmLostError reports that a lazily restored row could not be
// materialized — the backing store was truncated, corrupted or unmapped
// after RestoreLazy. The solver's remaining state is unusable; callers
// discard it and rebuild cold.
type WarmLostError struct {
	Row int // 1-based row that failed to materialize
	Err error
}

func (e *WarmLostError) Error() string {
	return fmt.Sprintf("core: lazily restored split row %d lost: %v", e.Row, e.Err)
}

func (e *WarmLostError) Unwrap() error { return e.Err }

// RestoreLazy is Restore with the split-point rows left behind a
// SplitRowSource instead of copied up front: the scalar state (row errors,
// resume row, bound) restores eagerly — SolveError's search scans RowErr, so
// it must be resident — while each J row materializes on first touch by a
// reconstruction. st.Splits is ignored; rows is consulted once per row and
// the solver retains what it returns, so a row is read (and its CRC paid)
// at most once per solver lifetime.
func (sv *Solver) RestoreLazy(st *SolverState, rows SplitRowSource) error {
	n := sv.kn.N()
	switch {
	case rows == nil:
		return fmt.Errorf("core: lazy restore without a row source")
	case sv.filled != 0:
		return fmt.Errorf("core: restore into a solver with %d filled rows", sv.filled)
	case st.N != n:
		return fmt.Errorf("core: snapshot n=%d, solver n=%d", st.N, n)
	case st.Filled < 1 || st.Filled > n:
		return fmt.Errorf("core: snapshot filled=%d outside 1..%d", st.Filled, n)
	case len(st.RowErr) != st.Filled:
		return fmt.Errorf("core: snapshot has %d row errors, want %d", len(st.RowErr), st.Filled)
	case len(st.LastE) != n+1:
		return fmt.Errorf("core: snapshot last row has %d cells, want %d", len(st.LastE), n+1)
	}
	// Unmaterialized rows are nil slots; fillRow appends deeper rows after
	// them, so Deepen works before any reconstruction forces a read.
	sv.st.splits = append(sv.st.splits[:0], make([][]int32, st.Filled)...)
	copy(sv.st.curE, st.LastE)
	copy(sv.rowErr[1:], st.RowErr)
	sv.filled = st.Filled
	sv.bound, sv.hasMax = st.Bound, st.HasMax
	sv.lazy = rows
	return nil
}

// materialize loads every still-lazy split row in 1..k, validating shape and
// range exactly like Restore. reconstruct(k) walks rows k..1 unconditionally,
// so it runs behind this; eagerly restored solvers return immediately.
func (sv *Solver) materialize(k int) error {
	if sv.lazy == nil {
		return nil
	}
	n := sv.kn.N()
	for r := 1; r <= k && r <= len(sv.st.splits); r++ {
		if sv.st.splits[r-1] != nil {
			continue
		}
		row, err := sv.lazy.SplitRow(r)
		if err != nil {
			return &WarmLostError{Row: r, Err: err}
		}
		if len(row) != n+1 {
			return &WarmLostError{Row: r, Err: fmt.Errorf("row has %d cells, want %d", len(row), n+1)}
		}
		for _, j := range row {
			if j < 0 || int(j) > n {
				return &WarmLostError{Row: r, Err: fmt.Errorf("split point %d outside 0..%d", j, n)}
			}
		}
		sv.st.splits[r-1] = row
	}
	return nil
}
