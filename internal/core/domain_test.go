package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/temporal"
)

// TestKernelNumericDomain: a NaN or infinite value, or a finite value whose
// weighted square sums overflow float64, is rejected once by NewKernel with
// an error matching ErrNumericDomain — through every exact entry point —
// instead of panicking in the split-point backtrack or surfacing as an
// untyped reconstruction failure.
func TestKernelNumericDomain(t *testing.T) {
	entries := map[string]func(*temporal.Sequence) error{
		"NewKernel":    func(s *temporal.Sequence) error { _, err := NewKernel(s, Options{}); return err },
		"NewSolver":    func(s *temporal.Sequence) error { _, err := NewSolver(s, Options{}, true, true); return err },
		"PTAc":         func(s *temporal.Sequence) error { _, err := PTAc(s, 4, Options{}); return err },
		"PTAe":         func(s *temporal.Sequence) error { _, err := PTAe(s, 0.2, Options{}); return err },
		"DPBasic":      func(s *temporal.Sequence) error { _, err := DPBasic(s, 4, Options{}); return err },
		"PTAcParallel": func(s *temporal.Sequence) error { _, err := PTAcParallel(s, 4, Options{}, 2); return err },
		"PTAeParallel": func(s *temporal.Sequence) error { _, err := PTAeParallel(s, 0.2, Options{}, 2); return err },
		"ErrorCurve":   func(s *temporal.Sequence) error { _, err := ErrorCurve(s, 4, Options{}); return err },
		"Matrices":     func(s *temporal.Sequence) error { _, _, err := Matrices(s, 4, Options{}); return err },
	}
	for _, v := range []float64{1e200, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, run := range entries {
			s := figure1c()
			s.Rows[2].Aggs[0] = v
			if err := run(s); !errors.Is(err, ErrNumericDomain) {
				t.Errorf("%s with value %v: %v, want ErrNumericDomain", name, v, err)
			}
		}
	}
	// A weight whose square overflows would turn zero merge costs into NaN.
	if _, err := PTAc(figure1c(), 4, Options{Weights: []float64{1e160}}); !errors.Is(err, ErrNumericDomain) {
		t.Errorf("weight 1e160: %v, want ErrNumericDomain", err)
	}
	// Large values whose sums stay finite are inside the domain.
	big := figure1c()
	for i := range big.Rows {
		big.Rows[i].Aggs[0] *= 1e140
	}
	res, err := PTAc(big, 4, Options{})
	if err != nil || math.IsNaN(res.Error) || math.IsInf(res.Error, 0) || res.C != 4 {
		t.Fatalf("PTAc over values near 1e142: %+v, %v", res, err)
	}
}
