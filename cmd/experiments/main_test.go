package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the exhibit goldens under testdata/")

// timed lists the exhibits whose output carries wall-clock timings (E6's
// engine-timing line, E7's span durations), which no golden can pin.
var timed = map[string]bool{"e6": true, "e7": true}

// TestExhibitsMatchGoldens renders every deterministic exhibit and
// compares it byte for byte against testdata/<name>.golden. Run with
// -update to rewrite the goldens after an intended change of output.
func TestExhibitsMatchGoldens(t *testing.T) {
	for _, e := range exhibits() {
		if timed[e.name] {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			out, err := e.gen()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", e.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Fatalf("%s differs from %s (rerun with -update if the change is intended):\n%s",
					e.name, path, out)
			}
		})
	}
}
