package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/pta"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func fleetBodies(t *testing.T, seed int64, n int) [][]byte {
	t.Helper()
	fw, err := newFleetWorkload(smokeConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for i := 0; i < n; i++ {
		r, err := fw.request(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.Body)
	}
	return out
}

func paperBodies(t *testing.T, seed int64, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < n; i++ {
		r, err := paperRequest(smokeConfig(), seed, i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.Body)
	}
	return out
}

func hotBodies(t *testing.T, seed int64) [][]byte {
	t.Helper()
	reqs, err := hotRequests(smokeConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, r := range reqs {
		out = append(out, r.Body)
	}
	return out
}

func TestRequestBodiesFollowSeed(t *testing.T) {
	gens := map[string]func(seed int64) [][]byte{
		"paper": func(seed int64) [][]byte { return paperBodies(t, seed, 3) },
		"hot":   func(seed int64) [][]byte { return hotBodies(t, seed) },
		"fleet": func(seed int64) [][]byte { return fleetBodies(t, seed, 3) },
	}
	for name, gen := range gens {
		a, b, other := gen(7), gen(7), gen(8)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d bodies for one seed", name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: body %d differs between two generations with one seed", name, i)
			}
			if bytes.Equal(a[i], other[i]) {
				t.Errorf("%s: body %d is the same for seeds 7 and 8", name, i)
			}
		}
	}
}

// servedAnswer sends one request through an in-memory ptaserve handler.
func servedAnswer(t *testing.T, req request) *serve.ResultWire {
	t.Helper()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compress", bytes.NewReader(req.Body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	res, err := decodeAnswer(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCheckerRejectsTamperedAnswers(t *testing.T) {
	reqs, err := hotRequests(smokeConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs[:2] { // one ptac, one ptae plan
		res := servedAnswer(t, req)
		if err := checkAnswer(req, res); err != nil {
			t.Fatalf("%s: honest answer rejected: %v", req.Plan.budget(), err)
		}
		if err := checkReference(req, res); err != nil {
			t.Fatalf("%s: honest answer fails the reference: %v", req.Plan.budget(), err)
		}

		wrong := *res
		wrong.Error *= 1.001
		if checkAnswer(req, &wrong) == nil {
			t.Errorf("%s: wrong error accepted", req.Plan.budget())
		}
		if checkReference(req, &wrong) == nil {
			t.Errorf("%s: wrong error passes the reference", req.Plan.budget())
		}

		moved := *res
		moved.Rows = append([]serve.RowWire(nil), res.Rows...)
		moved.Rows[0].Aggs = []float64{moved.Rows[0].Aggs[0] + 1, moved.Rows[0].Aggs[1]}
		if checkAnswer(req, &moved) == nil {
			t.Errorf("%s: altered row accepted", req.Plan.budget())
		}

		short := *res
		short.Rows = res.Rows[:len(res.Rows)-1]
		if checkAnswer(req, &short) == nil {
			t.Errorf("%s: row count disagreeing with c accepted", req.Plan.budget())
		}

		past := *res
		past.Rows = append([]serve.RowWire(nil), res.Rows...)
		past.Rows[len(past.Rows)-1].End += 5
		if checkAnswer(req, &past) == nil {
			t.Errorf("%s: row running past the input accepted", req.Plan.budget())
		}
	}

	// An answer under a loose budget keeps most input tuples unmerged.
	// Dropping one leaves the SSE unchanged, since pta.SSE charges only
	// where input and answer overlap; with c lowered to match, only the
	// coverage check can reject it. So can only it reject a row that
	// spans a gap between two input runs.
	in := withGap(reqs[0].Input)
	loose := request{Plan: plan{Strategy: "ptac", C: len(in.Rows) - 1}, Input: in}
	loose.Body = encodeBody(in, loose.Plan)
	res := servedAnswer(t, loose)
	if err := checkAnswer(loose, res); err != nil {
		t.Fatalf("honest loose answer rejected: %v", err)
	}
	i := slices.IndexFunc(res.Rows, func(r serve.RowWire) bool { return isInputRow(in, r) })
	if i < 0 {
		t.Fatal("no input tuple left unmerged at c = n-1")
	}
	drop := *res
	drop.Rows = slices.Delete(slices.Clone(res.Rows), i, i+1)
	drop.C--
	if err := checkAnswer(loose, &drop); err == nil || !strings.Contains(err.Error(), "not covered") && !strings.Contains(err.Error(), "starts at") {
		t.Errorf("answer missing an unmerged row: got %v, want a coverage error", err)
	}
	g := -1
	for k := 0; k+1 < len(res.Rows) && g < 0; k++ {
		if res.Rows[k+1].Start > res.Rows[k].End+1 {
			g = k
		}
	}
	if g < 0 {
		t.Fatal("the input has no gap")
	}
	// Stretch the row before the gap over it, and drop the row after it.
	span := *res
	span.Rows = slices.Clone(res.Rows)
	span.Rows[g].End = span.Rows[g+1].End
	span.Rows = slices.Delete(span.Rows, g+1, g+2)
	span.C--
	if err := checkAnswer(loose, &span); err == nil || !strings.Contains(err.Error(), "runs past") {
		t.Errorf("row spanning an input gap: got %v, want a runs-past error", err)
	}

	// Oversize: the same answer checked against a budget one smaller.
	req := reqs[0]
	res = servedAnswer(t, req)
	tight := req
	tight.Plan.C = res.C - 1
	if err := checkAnswer(tight, res); err == nil || !strings.Contains(err.Error(), "over budget") {
		t.Errorf("oversize answer: got %v, want an over-budget error", err)
	}
	eps := reqs[1]
	eps.Plan.Eps = 0
	if err := checkAnswer(eps, servedAnswer(t, reqs[1])); err == nil || !strings.Contains(err.Error(), "over budget") {
		t.Errorf("answer over an error budget: got %v, want an over-budget error", err)
	}
}

// withGap copies s with every row from the middle on shifted three chronons
// later, so the copy has at least one gap.
func withGap(s *pta.Series) *pta.Series {
	out := pta.NewSeries(s.GroupAttrs, s.AggNames)
	for i, r := range s.Rows {
		if i >= len(s.Rows)/2 {
			r.T = pta.Interval{Start: r.T.Start + 3, End: r.T.End + 3}
		}
		r.Group = out.Groups.Intern(s.Groups.Values(r.Group))
		out.Rows = append(out.Rows, r)
	}
	return out
}

// isInputRow reports whether an answer row is an input tuple left unmerged.
func isInputRow(in *pta.Series, r serve.RowWire) bool {
	return slices.ContainsFunc(in.Rows, func(x pta.Row) bool {
		return x.T.Start == pta.Chronon(r.Start) && x.T.End == pta.Chronon(r.End) && slices.Equal(x.Aggs, r.Aggs)
	})
}

// lastJSON parses the result line a run printed last.
func lastJSON(t *testing.T, out string) (res struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

func TestSmokeRunsEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for trace := 0; trace <= 1; trace++ {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				var out bytes.Buffer
				code := run(options{workload: w.Name, seed: 5, seconds: 1, trace: trace, smoke: true, workDir: t.TempDir()}, &out)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				res := lastJSON(t, out.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("verdict correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace == 1 {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == 1 && w.Name == "hot" {
					if v := res.Metrics["serve.cache_hit_ratio"].Value; v != 1 {
						t.Errorf("hot serve.cache_hit_ratio = %g, want 1", v)
					}
					if v := res.Metrics["serve.dp_cells_filled"].Value; v != 0 {
						t.Errorf("hot serve.dp_cells_filled = %g, want 0", v)
					}
				}
			})
		}
	}
}

// The nominal rate and latency limit of hot are stated in BENCHMARK.json;
// the constants the runner uses must match what it states.
func TestBenchmarkJSONStatesHotSettings(t *testing.T) {
	cfg := fullConfig()
	for _, w := range loadSpec(t).Workloads {
		if w.Name != "hot" {
			continue
		}
		for _, want := range []string{fmt.Sprintf("%g req/s", cfg.HotRate), fmt.Sprintf("p99 <= %g ms", cfg.HotLimitMS)} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("hot why %q does not state %q", w.Why, want)
			}
		}
		return
	}
	t.Fatal("no hot workload in BENCHMARK.json")
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	if got := selfTimes(spans)[1]; got != 100-50-10 {
		t.Errorf("self time %d, want 40", got)
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100, 0.90}, {200, 0.95}, {1000, 0.99}, {5000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}
