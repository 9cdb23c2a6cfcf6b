package flowsched

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Size ceilings of the durable encoding, about 10% above what the
// version-2 WAL frame and project image measure on the script in
// TestDurableEncodingSize (7,046 B per operation and a 394,601 B
// checkpoint; the version-1 encoding wrote 16,774 B and 512,843 B). An
// encoding change that grows the log or the checkpoint past them fails
// here, before it shows in a benchmark.
const (
	maxWALBytesPerOp   = 7750
	maxCheckpointBytes = 434000
)

// TestDurableEncodingSize drives a durable ASIC project through a fixed
// designer loop — import RTL, plan, run to sign-off, 20 times — and
// checks the WAL bytes per facade operation and the size of the
// checkpoint taken at the end.
func TestDurableEncodingSize(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(dir, ASICSchema, Options{Designer: "bench"}, PersistOptions{NoSync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	segBytes := func() int64 {
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, s := range segs {
			st, err := os.Stat(s)
			if err != nil {
				t.Fatal(err)
			}
			n += st.Size()
		}
		return n
	}
	r := rand.New(rand.NewSource(1))
	text := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "0123456789abcdef"[r.Intn(16)]
		}
		return b
	}
	for _, class := range []string{"constraints", "testbench"} {
		if _, err := p.Import(class, text(512)); err != nil {
			t.Fatal(err)
		}
	}
	before := segBytes()
	targets := []string{"drcreport", "lvsreport", "timingreport", "simreport"}
	const iterations = 20
	for i := 0; i < iterations; i++ {
		if _, err := p.Import("rtl", text(2048)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(targets, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunWith(targets, RunOptions{AutoComplete: true}); err != nil {
			t.Fatal(err)
		}
	}
	perOp := float64(segBytes()-before) / (3 * iterations)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WAL %.0f B per facade operation, checkpoint %d B", perOp, st.Size())
	if perOp > maxWALBytesPerOp {
		t.Errorf("WAL writes %.0f B per facade operation, ceiling %d", perOp, maxWALBytesPerOp)
	}
	if st.Size() > maxCheckpointBytes {
		t.Errorf("checkpoint is %d B, ceiling %d", st.Size(), maxCheckpointBytes)
	}
}
