package main

import (
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the client process that
// untraced rounds start (they re-execute their own binary with -client).
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-client" {
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// exact is what the benchmark reports as exact counts: they must not
// depend on timing, only on the workload and its seed.
type exact struct {
	syncsPerWrite, walBytesPerWrite, recordsPerWrite float64
	trialsSampled                                    float64
}

func exactCounts(t *testing.T, w *workload, seed int64) exact {
	t.Helper()
	r, err := runRound(w, seed, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.errs) > 0 {
		t.Fatalf("correctness checks failed: %v", r.errs)
	}
	for _, s := range r.samples {
		if !s.ok {
			t.Fatalf("%s %s failed", s.kind, s.route)
		}
	}
	writes := float64(r.okOps("write"))
	return exact{
		syncsPerWrite:    float64(r.fs.Syncs) / writes,
		walBytesPerWrite: float64(r.fs.Bytes) / writes,
		recordsPerWrite:  float64(r.walRecords) / writes,
		trialsSampled:    r.ctr.sampled,
	}
}

// TestExactCountsRepeat runs each workload twice with one seed: syncs
// and WAL bytes per write, records per write and sampled Monte-Carlo
// trials must repeat exactly, or they cannot be reported as counts.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := exactCounts(t, w, 7), exactCounts(t, w, 7)
			if a != b {
				t.Fatalf("counts differ between two runs of seed 7:\n%+v\n%+v", a, b)
			}
			if a.syncsPerWrite == 0 || a.walBytesPerWrite == 0 || a.recordsPerWrite == 0 {
				t.Fatalf("a count is zero: %+v", a)
			}
		})
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if got, want := self[1], time.Duration(100-30-10); got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
	if self[2] != 20 {
		t.Fatalf("leaf self time %v, want its duration", self[2])
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Fatalf("p99 %v, want 5", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile %v, want 0", q)
	}
}
