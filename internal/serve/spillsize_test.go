package serve

import (
	"context"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/pta"
)

// TestSpillSizeMatchesEncoding: the size store checks against the cap
// before snapshotting is exactly the length encodeSnapshot produces, for
// every identity and shape.
func TestSpillSizeMatchesEncoding(t *testing.T) {
	check := func(seed int64, keyLen, stratLen, classLen uint8, n, filled uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nn := int(n)%64 + 1
		f := int(filled)%nn + 1
		snap := &pta.MatrixSnapshot{
			Strategy: strings.Repeat("s", int(stratLen)),
			Class:    strings.Repeat("c", int(classLen)),
			N:        nn,
			Filled:   f,
			RowErr:   make([]float64, f),
			LastE:    make([]float64, nn+1),
			Splits:   make([]int32, f*(nn+1)),
			Bound:    rng.Float64(),
			HasMax:   rng.Intn(2) == 0,
		}
		for i := range snap.Splits {
			snap.Splits[i] = int32(rng.Intn(nn + 1))
		}
		key := strings.Repeat("k", int(keyLen))
		return spillSize(key, snap.Strategy, snap.Class, snap.N, snap.Filled) == len(encodeSnapshot(key, snap))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSpillOverCapSkipsSnapshot: a set whose blob would exceed the spill cap
// is refused before Snapshot runs. A lazily restored set over a truncated
// backing file makes the difference visible: snapshotting it would have to
// materialize the lost rows and count a spill error on every hit.
func TestSpillOverCapSkipsSnapshot(t *testing.T) {
	dir := t.TempDir()
	cs, err := newCacheStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	series, err := decodeSeries(bigWire(5, 600))
	if err != nil {
		t.Fatal(err)
	}
	set, err := pta.NewMatrixSet(series, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Compress(context.Background(), pta.Size(16)); err != nil {
		t.Fatal(err)
	}
	const key = "cap-test"
	if !cs.store(key, set) {
		t.Fatal("store refused the warm set under the default cap")
	}
	lazy := cs.load(key, series, "ptac", pta.Options{})
	if lazy == nil {
		t.Fatal("lazy load failed on an intact file")
	}
	files := spillFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d spill files, want 1", len(files))
	}
	if err := os.Truncate(files[0], 4096); err != nil {
		t.Fatal(err)
	}

	cs.maxBytes = 4096
	before := cs.stats()
	for i := 0; i < 3; i++ {
		if cs.store(key, lazy) {
			t.Fatal("store accepted a blob over the cap")
		}
	}
	if after := cs.stats(); after != before {
		t.Fatalf("over-cap stores changed the spill stats %+v -> %+v, want no snapshot attempt", before, after)
	}
}
