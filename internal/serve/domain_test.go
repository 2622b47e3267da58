package serve

import (
	"net/http"
	"testing"
)

// TestNumericDomainMapsTo422: a finite value whose square overflows float64
// (NaN and ±Inf cannot cross JSON) fails every exact DP strategy with 422
// numeric_domain on both compress endpoints — cached (MatrixSet) and
// engine paths alike — instead of a panic or a 500.
func TestNumericDomainMapsTo422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := projWire()
	series.Rows[3].Aggs[0] = 1e200
	expect := func(what string, status int, out map[string]any) {
		t.Helper()
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d: %v", what, status, out)
		}
		if code := errorField(t, out, "code"); code != "numeric_domain" {
			t.Fatalf("%s: code %v, want numeric_domain", what, code)
		}
	}
	for _, plan := range []planWire{
		{Strategy: "ptac", Budget: "c=3"},
		{Strategy: "ptae", Budget: "eps=0.2"},
		{Strategy: "dpbasic", Budget: "c=3"},
		{Strategy: "ptac-jmin", Budget: "c=4"},
		{Strategy: "ptac-parallel", Budget: "c=3"},
		{Strategy: "ptac", Budget: "c=3", FillAlgo: "smawk"},
	} {
		status, out := post(t, ts.URL+"/v1/compress", compressRequest{Series: series, Plan: plan})
		expect("/v1/compress "+plan.Strategy+" "+plan.Budget, status, out)
	}
	status, out := post(t, ts.URL+"/v1/compress/many", compressManyRequest{
		Series: series,
		Plans:  []planWire{{Strategy: "ptac", Budget: "c=4"}, {Strategy: "ptae", Budget: "eps=0.1"}},
	})
	expect("/v1/compress/many", status, out)
}
