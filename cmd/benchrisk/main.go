// Command benchrisk measures the Monte-Carlo risk engine over a trials
// sweep and records the numbers in BENCH_risk.json, the repo's
// performance-trajectory file for the risk path. Each invocation
// appends one labelled entry (machine, engine configuration, and
// ns/op per sweep point) to the existing file, so successive runs
// across PRs accumulate into a history.
//
//	benchrisk -label after-parallel                 # sweep, append to BENCH_risk.json
//	benchrisk -workers 1 -label serial-only         # force the serial path
//	benchrisk -out /tmp/b.json -trials 1000,10000   # custom sweep
//	benchrisk -obs -label overhead                  # plain vs instrumented, BENCH_obs.json
//	benchrisk -incremental -label memo              # cold vs warm-after-edit
//
// With -obs each sweep point is measured twice — the plain engine and
// the same engine under the full observability layer, in the serving
// path's per-request shape (shared labeled-metrics registry plus a
// fresh request tracer and root span per run, per-shard spans beneath
// it) — and the entry records both plus the overhead percentage,
// appending to BENCH_obs.json by default.
//
// With -incremental each sweep point measures the subtree trial-stream
// memo over the chip-scale SoC network (-blocks ASIC-flow replicas plus
// a top-level assembly chain): a cold simulation versus a warm
// re-simulation after a single-activity edit (the memo primed with the
// baseline), in both exact and sketch mode. The warm run re-samples
// only the edited subtree — results are bit-identical to a cold run of
// the edited model — and the entry records the wall-clock speedup plus
// the deterministic sampled/reused activity-trial counts.
//
// The workload is the E6 exhibit's ASIC-flow model (the repo's
// heaviest risk network), so the numbers line up with
// BenchmarkE6_RiskSimulation and the E6 exhibit timings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"flowsched/internal/monte"
	"flowsched/internal/obs"
	"flowsched/internal/report"
	"flowsched/internal/serve"
)

// sweepPoint is one measured (trials, workers) cell. The instrumented
// fields are recorded only in -obs mode.
type sweepPoint struct {
	Trials       int     `json:"trials"`
	Workers      int     `json:"workers"`
	Iterations   int     `json:"iterations"`
	NsPerOp      int64   `json:"ns_per_op"`
	TrialsPerSec float64 `json:"trials_per_sec"`
	// NsPerOpObs is the instrumented engine's time; OverheadPct its
	// cost relative to the plain run (positive = slower).
	NsPerOpObs  int64   `json:"ns_per_op_instrumented,omitempty"`
	OverheadPct float64 `json:"overhead_pct,omitempty"`
}

// incrementalPoint is one measured -incremental cell: cold full
// simulation vs warm re-simulation after one activity edit. The trial
// counts are deterministic (they follow from the model's subtree
// structure); the timings are this machine's.
type incrementalPoint struct {
	Trials  int     `json:"trials"`
	Mode    string  `json:"mode"` // "exact" or "sketch"
	ColdNs  int64   `json:"cold_ns_per_op"`
	WarmNs  int64   `json:"warm_ns_per_op"`
	Speedup float64 `json:"speedup"`
	// Activity-trials the warm run drew fresh vs served from the memo;
	// sampled+reused = activities × trials.
	WarmSampled int64 `json:"warm_sampled_activity_trials"`
	WarmReused  int64 `json:"warm_reused_activity_trials"`
}

// entry is one benchrisk invocation.
type entry struct {
	Label     string       `json:"label"`
	Date      string       `json:"date"`
	GoVersion string       `json:"go"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	CPUs      int          `json:"cpus"`
	Results   []sweepPoint `json:"results,omitempty"`
	// Incremental holds -incremental mode's cold-vs-warm points.
	Incremental []incrementalPoint `json:"incremental,omitempty"`
}

// file is the BENCH_risk.json document.
type file struct {
	Description string  `json:"description"`
	Benchmarks  []entry `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "trajectory file to append to (default BENCH_risk.json, or BENCH_obs.json with -obs)")
	label := flag.String("label", "run", "label for this entry")
	trialsFlag := flag.String("trials", "1000,10000,100000", "comma-separated trials sweep")
	workersFlag := flag.String("workers", "", "comma-separated worker counts (default \"1,<cores>\")")
	seed := flag.Int64("seed", 1995, "simulation seed")
	obsMode := flag.Bool("obs", false, "also measure the instrumented engine and record the overhead")
	incremental := flag.Bool("incremental", false, "measure cold vs warm-after-edit with the subtree trial-stream memo")
	editAct := flag.String("edit", "b2.DRC", "activity to perturb in -incremental mode")
	blocks := flag.Int("blocks", 4, "SoC block count for the -incremental workload")
	flag.Parse()
	if *out == "" {
		if *obsMode {
			*out = "BENCH_obs.json"
		} else {
			*out = "BENCH_risk.json"
		}
	}

	trials, err := parseInts(*trialsFlag)
	if err != nil {
		fatal("bad -trials: %v", err)
	}
	workersDefault := fmt.Sprintf("1,%d", runtime.GOMAXPROCS(0))
	if *workersFlag == "" {
		*workersFlag = workersDefault
	}
	workers, err := parseInts(*workersFlag)
	if err != nil {
		fatal("bad -workers: %v", err)
	}
	workers = dedupe(workers)

	// Validate the trajectory file before spending minutes on the sweep.
	doc := file{Description: "Monte-Carlo risk engine performance trajectory (cmd/benchrisk over the E6 ASIC model)"}
	if *obsMode {
		doc.Description = "Observability overhead trajectory: plain vs instrumented risk engine (cmd/benchrisk -obs over the E6 ASIC model)"
	}
	if blob, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(blob, &doc); err != nil {
			fatal("existing %s is not a benchrisk file: %v", *out, err)
		}
	}

	models, err := report.ASICRiskModels()
	if err != nil {
		fatal("%v", err)
	}

	e := entry{
		Label: *label, Date: time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(),
	}
	if *incremental {
		// The incremental workload is the chip-scale SoC network — the
		// regime the memo targets: one edited block subtree amid many
		// untouched ones.
		if models, err = report.SoCRiskModels(*blocks); err != nil {
			fatal("%v", err)
		}
		for _, n := range trials {
			for _, sketch := range []bool{false, true} {
				p := measureIncremental(models, n, *seed, sketch, *editAct)
				fmt.Printf("trials=%-8d mode=%-6s cold %12d ns/op  warm %12d ns/op  speedup %5.1fx  (sampled %d, reused %d)\n",
					p.Trials, p.Mode, p.ColdNs, p.WarmNs, p.Speedup, p.WarmSampled, p.WarmReused)
				e.Incremental = append(e.Incremental, p)
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, e)
		writeDoc(*out, doc)
		fmt.Printf("appended entry %q to %s\n", *label, *out)
		return
	}
	for _, w := range workers {
		for _, n := range trials {
			cfg := monte.Config{Trials: n, Seed: *seed, Workers: w}
			ns, iters := measure(models, cfg)
			p := sweepPoint{
				Trials: n, Workers: w, Iterations: iters, NsPerOp: ns,
				TrialsPerSec: float64(n) / (float64(ns) / 1e9),
			}
			if *obsMode {
				// One metrics registry for the whole point, as a project
				// would hold one across many analyses; each iteration
				// then gets a fresh request-scoped tracer and root span,
				// the serving path's exact per-request shape.
				cfg.Obs = obs.New()
				p.NsPerOpObs, _ = measureTraced(models, cfg)
				p.OverheadPct = 100 * (float64(p.NsPerOpObs) - float64(p.NsPerOp)) / float64(p.NsPerOp)
				fmt.Printf("trials=%-7d workers=%-2d plain %12d ns/op  instrumented %12d ns/op  overhead %+.2f%%\n",
					n, w, p.NsPerOp, p.NsPerOpObs, p.OverheadPct)
			} else {
				fmt.Printf("trials=%-7d workers=%-2d %12d ns/op  %10.0f trials/s\n",
					n, w, ns, p.TrialsPerSec)
			}
			e.Results = append(e.Results, p)
		}
	}

	doc.Benchmarks = append(doc.Benchmarks, e)
	writeDoc(*out, doc)
	fmt.Printf("appended entry %q to %s\n", *label, *out)
}

func writeDoc(path string, doc file) {
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
}

// measureIncremental times a cold simulation of the edited model against
// a warm one whose memo was primed with the baseline — the serving
// pattern after a single-activity edit. Priming happens off the clock
// each iteration so the warm number is always first-edit, never
// full-hit.
func measureIncremental(base []monte.ActivityModel, trials int, seed int64, sketch bool, editAct string) incrementalPoint {
	edited := make([]monte.ActivityModel, len(base))
	copy(edited, base)
	found := false
	for i := range edited {
		if edited[i].Name == editAct {
			edited[i].Mode = edited[i].Mode * 13 / 10
			edited[i].Max = edited[i].Max * 13 / 10
			found = true
		}
	}
	if !found {
		fatal("-edit activity %q not in the model", editAct)
	}
	mode := "exact"
	if sketch {
		mode = "sketch"
	}
	cfg := monte.Config{Trials: trials, Seed: seed, Sketch: sketch}
	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := monte.Simulate(edited, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Size the memo for the workload: two generations of every activity
	// stream (baseline + edited), so the 1M-trial points never evict
	// mid-prime and the warm number measures reuse, not budget pressure.
	memoBytes := 2 * int64(len(base)) * (int64(trials)*8 + 96)
	var sampled, reused int64
	warm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			memo := monte.NewMemo(memoBytes)
			primed := cfg
			primed.Memo = memo
			if _, err := monte.Simulate(base, primed); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := monte.Simulate(edited, primed)
			if err != nil {
				b.Fatal(err)
			}
			sampled, reused = res.SampledActivityTrials, res.ReusedActivityTrials
		}
	})
	p := incrementalPoint{
		Trials: trials, Mode: mode,
		ColdNs: cold.NsPerOp(), WarmNs: warm.NsPerOp(),
		WarmSampled: sampled, WarmReused: reused,
	}
	if p.WarmNs > 0 {
		p.Speedup = float64(p.ColdNs) / float64(p.WarmNs)
	}
	return p
}

// measureTraced times one instrumented Simulate configuration the way
// the serving path runs it: cfg.Obs's metrics registry is shared across
// iterations, while each iteration carries its own bounded request
// tracer and a "serve.risk" root span that the monte subtree nests
// under (serve.Server.instrument's per-request shape).
func measureTraced(models []monte.ActivityModel, cfg monte.Config) (int64, int) {
	metrics := cfg.Obs.Metrics()
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := obs.NewTracer(serve.DefaultRequestSpans)
			root := tr.Start(nil, "serve.risk", time.Time{})
			run := cfg
			run.Obs = obs.NewWith(metrics, tr)
			run.Parent = root
			if _, err := monte.Simulate(models, run); err != nil {
				b.Fatal(err)
			}
			root.End(time.Time{})
		}
	})
	return r.NsPerOp(), r.N
}

// measure times one Simulate configuration, returning ns/op and the
// iteration count testing.Benchmark settled on.
func measure(models []monte.ActivityModel, cfg monte.Config) (int64, int) {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := monte.Simulate(models, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	return r.NsPerOp(), r.N
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("value %d out of range", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func dedupe(ns []int) []int {
	seen := make(map[int]bool, len(ns))
	var out []int
	for _, n := range ns {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchrisk: "+format+"\n", args...)
	os.Exit(1)
}
