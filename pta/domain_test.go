package pta_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/pta"
)

// TestNumericDomainEveryDPStrategy: a value outside the numeric domain (a
// finite 1e200 whose square overflows, or NaN) fails every exact DP
// strategy — and every engine path into the DP — with an error matching
// ErrNumericDomain, never a panic or an untyped reconstruction failure.
func TestNumericDomainEveryDPStrategy(t *testing.T) {
	ctx := context.Background()
	par := mustEngine(t, pta.WithParallelism(2))
	for _, v := range []float64{1e200, math.NaN()} {
		s := projITA(t)
		s.Rows[3].Aggs[0] = v
		check := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, pta.ErrNumericDomain) {
				t.Errorf("%s with value %v: %v, want ErrNumericDomain", what, v, err)
			}
		}
		dp := 0
		for _, name := range pta.Strategies() {
			if _, ok := pta.DPClass(name); !ok && name != "ptac-parallel" {
				continue
			}
			dp++
			ev, _ := pta.Lookup(name)
			for _, b := range []pta.Budget{pta.Size(3), pta.ErrorBound(0.2)} {
				if !ev.Supports(b.Kind()) {
					continue
				}
				_, err := pta.Compress(s, name, b, pta.Options{})
				check(name+" "+b.String(), err)
				_, err = par.Compress(ctx, s, pta.Plan{Strategy: name, Budget: b})
				check("parallel engine "+name+" "+b.String(), err)
			}
		}
		if dp < 6 {
			t.Fatalf("only %d exact DP strategies registered", dp)
		}
		plans := []pta.Plan{{Strategy: "ptac", Budget: pta.Size(3)}, {Strategy: "ptae", Budget: pta.ErrorBound(0.2)}}
		_, err := mustEngine(t).CompressMany(ctx, s, plans)
		check("CompressMany", err)
		_, err = par.CompressMany(ctx, s, plans)
		check("parallel CompressMany", err)
		_, err = pta.NewMatrixSet(s, "ptac", pta.Options{})
		check("NewMatrixSet", err)
		_, err = pta.CompressStream(pta.NewStream(s), "ptac", pta.Size(3), pta.Options{})
		check("CompressStream ptac", err)
	}
}
