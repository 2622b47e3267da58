package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/serve"
	"repro/internal/temporal"
	"repro/pta"
)

// sseTolerance is the relative slack between a served error and the SSE the
// checker recomputes: the server sums merge costs in DP order, the checker
// sums per-row deviations, so the two may differ in the last bits.
const sseTolerance = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= sseTolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// decodeAnswer parses a 200 body of POST /v1/compress.
func decodeAnswer(body []byte) (*serve.ResultWire, error) {
	var res serve.ResultWire
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &res, nil
}

// checkAnswer verifies one served answer against its request: the rows
// form a valid reduction (checkCover) whose SSE against the input,
// recomputed with pta.SSE, equals the reported error, and the size or error
// respects the budget.
func checkAnswer(req request, res *serve.ResultWire) error {
	if len(res.Rows) != res.C {
		return fmt.Errorf("answer has %d rows but reports c=%d", len(res.Rows), res.C)
	}
	z, err := answerSeries(req.Input, res.Rows)
	if err != nil {
		return err
	}
	if err := checkCover(req.Input, z); err != nil {
		return err
	}
	sse, err := pta.SSE(req.Input, z, pta.Options{})
	if err != nil {
		return fmt.Errorf("recomputing SSE: %w", err)
	}
	if !near(sse, res.Error) {
		return fmt.Errorf("reported error %.17g, recomputed SSE %.17g", res.Error, sse)
	}
	switch req.Plan.Strategy {
	case "ptae":
		if limit := req.Plan.Eps * req.MaxErr; res.Error > limit && !near(res.Error, limit) {
			return fmt.Errorf("error %.17g over budget eps=%g (%.17g)", res.Error, req.Plan.Eps, limit)
		}
	default:
		if res.C > req.Plan.C {
			return fmt.Errorf("size %d over budget c=%d", res.C, req.Plan.C)
		}
	}
	return nil
}

// checkBody decodes and checks one answer body.
func checkBody(req request, body []byte) error {
	res, err := decodeAnswer(body)
	if err != nil {
		return err
	}
	return checkAnswer(req, res)
}

// checkCover requires each group's answer rows to be sorted and disjoint, to
// cover exactly the chronons the group's input rows cover, and each to lie
// within one gap-free run of the input. pta.SSE charges only where input and
// answer overlap, so without this a dropped unmerged row, a row running past
// the input or a merge across a gap would go unseen.
func checkCover(in, z *pta.Series) error {
	// runs[g] are the maximal gap-free runs of the input rows of answer
	// group g; input rows are sorted by time within a group.
	runs := map[int32][]pta.Interval{}
	for _, r := range in.Rows {
		g, ok := z.Groups.Lookup(in.Groups.Values(r.Group))
		if !ok {
			return fmt.Errorf("input group %v has no answer rows", in.Groups.Values(r.Group))
		}
		rs := runs[g]
		if n := len(rs); n > 0 && rs[n-1].End+1 == r.T.Start {
			rs[n-1].End = r.T.End
		} else {
			rs = append(rs, r.T)
		}
		runs[g] = rs
	}
	// Walk each group's answer rows in order: each must start where the
	// previous one ended (or at the next run's start) and end inside the
	// run it starts in.
	type cursor struct {
		run  int
		next pta.Chronon
	}
	at := map[int32]*cursor{}
	for i, r := range z.Rows {
		rs := runs[r.Group]
		c := at[r.Group]
		if c == nil {
			if len(rs) == 0 {
				return fmt.Errorf("row %d: group %v is not in the input", i, z.Groups.Values(r.Group))
			}
			c = &cursor{next: rs[0].Start}
			at[r.Group] = c
		}
		switch {
		case c.run == len(rs):
			return fmt.Errorf("row %d: [%d,%d] lies past the group's input", i, r.T.Start, r.T.End)
		case r.T.Start != c.next:
			return fmt.Errorf("row %d: starts at %d, want %d (a gap, overlap or reordering)", i, r.T.Start, c.next)
		case r.T.End > rs[c.run].End:
			return fmt.Errorf("row %d: [%d,%d] runs past the input run ending at %d", i, r.T.Start, r.T.End, rs[c.run].End)
		case r.T.End == rs[c.run].End:
			if c.run++; c.run < len(rs) {
				c.next = rs[c.run].Start
			}
		default:
			c.next = r.T.End + 1
		}
	}
	for g, rs := range runs {
		if c := at[g]; c == nil || c.run < len(rs) {
			missed := rs[0]
			if c != nil {
				missed = pta.Interval{Start: c.next, End: rs[c.run].End}
			}
			return fmt.Errorf("group %v: input chronons [%d,%d] are not covered", z.Groups.Values(g), missed.Start, missed.End)
		}
	}
	return nil
}

// answerSeries rebuilds the reduced series from wire rows, with the input's
// schema; group values are matched by value by pta.SSE.
func answerSeries(in *pta.Series, rows []serve.RowWire) (*pta.Series, error) {
	z := pta.NewSeries(in.GroupAttrs, in.AggNames)
	for i, r := range rows {
		if len(r.Aggs) != len(in.AggNames) {
			return nil, fmt.Errorf("row %d has %d aggregates, want %d", i, len(r.Aggs), len(in.AggNames))
		}
		if len(r.Group) != len(in.GroupAttrs) {
			return nil, fmt.Errorf("row %d has %d group values, want %d", i, len(r.Group), len(in.GroupAttrs))
		}
		vals := make([]temporal.Datum, len(r.Group))
		for j, v := range r.Group {
			d, err := wireDatum(in.GroupAttrs[j].Kind, v)
			if err != nil {
				return nil, fmt.Errorf("row %d: %w", i, err)
			}
			vals[j] = d
		}
		if r.End < r.Start {
			return nil, fmt.Errorf("row %d: interval [%d,%d] is empty", i, r.Start, r.End)
		}
		z.Rows = append(z.Rows, pta.Row{
			Group: z.Groups.Intern(vals),
			Aggs:  r.Aggs,
			T:     pta.Interval{Start: pta.Chronon(r.Start), End: pta.Chronon(r.End)},
		})
	}
	return z, nil
}

func wireDatum(kind temporal.Kind, v any) (temporal.Datum, error) {
	switch kind {
	case temporal.KindInt:
		f, ok := v.(float64)
		if !ok || f != math.Trunc(f) {
			return temporal.Datum{}, fmt.Errorf("group value %v is not an int", v)
		}
		return temporal.Int(int64(f)), nil
	case temporal.KindFloat:
		f, ok := v.(float64)
		if !ok {
			return temporal.Datum{}, fmt.Errorf("group value %v is not a float", v)
		}
		return temporal.Float(f), nil
	default:
		s, ok := v.(string)
		if !ok {
			return temporal.Datum{}, fmt.Errorf("group value %v is not a string", v)
		}
		return temporal.String(s), nil
	}
}

// checkReference re-solves the request in-process with the pruned-scan fill
// (the paper's algorithm) and requires the served answer to reach the same
// optimum: the same size and the same error.
func checkReference(req request, res *serve.ResultWire) error {
	b, err := req.Plan.parse()
	if err != nil {
		return err
	}
	strategy := req.Plan.Strategy
	if strategy == "dist" {
		strategy = "ptac" // dist is bit-identical to the exact size-bounded DP
	}
	ref, err := pta.Compress(req.Input, strategy, b, pta.Options{FillAlgo: pta.FillPruned})
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	if ref.C != res.C || !near(ref.Error, res.Error) {
		return fmt.Errorf("answer c=%d error %.17g, reference optimum c=%d error %.17g", res.C, res.Error, ref.C, ref.Error)
	}
	return nil
}
