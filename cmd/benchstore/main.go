// Command benchstore measures the snapshot-isolated store and the
// what-if scenario engine, recording the numbers in BENCH_scenarios.json
// — the repo's performance-trajectory file for the copy-on-write path.
// Each invocation appends one labelled entry, so successive runs across
// PRs accumulate into a history.
//
//	benchstore -label after-cow                  # full sweep, append
//	benchstore -entries 1000,100000 -out /tmp/b.json
//
// Three families are measured:
//
//   - store: Snapshot and ForkAt over databases of growing entry count,
//     against the pre-refactor way to get an isolated copy (JSON
//     marshal + unmarshal). COW forking is O(containers), so its ns/op
//     should stay flat while the JSON clone grows linearly.
//   - scenarios: a what-if sweep over the ASIC flow (the E8 exhibit's
//     workload) across worker counts; outcomes are bit-identical for
//     every worker count, only the wall time moves.
//   - risk_sweeps: the same sweep with the Monte-Carlo risk dimension
//     on, across scenario counts. The baseline simulation is shared
//     through the subtree trial-stream memo, so the sampled
//     activity-trial count grows with the edited subtrees while the
//     naive cost ((scenarios+1) × activities × trials) grows with the
//     scenario count — the gap is the memo's savings.
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

	"flowsched/internal/engine"
	"flowsched/internal/monte"
	"flowsched/internal/scenario"
	"flowsched/internal/store"
	"flowsched/internal/vclock"
	"flowsched/internal/workload"
)

// storePoint compares COW forking with a JSON clone at one store size.
type storePoint struct {
	Containers  int   `json:"containers"`
	Entries     int   `json:"entries"`
	SnapshotNs  int64 `json:"snapshot_ns_per_op"`
	ForkNs      int64 `json:"fork_ns_per_op"`
	JSONCloneNs int64 `json:"json_clone_ns_per_op"`
	// ForkSpeedup is json_clone / fork (how much cheaper a COW fork is
	// than serializing the database to get an isolated copy).
	ForkSpeedup float64 `json:"fork_speedup_vs_json"`
}

// scenarioPoint is one measured what-if sweep configuration.
type scenarioPoint struct {
	Scenarios  int   `json:"scenarios"`
	Workers    int   `json:"workers"`
	Iterations int   `json:"iterations"`
	NsPerOp    int64 `json:"ns_per_op"`
}

// riskSweepPoint measures the sweep's risk dimension at one scenario
// count. Every activity-trial a scenario simulation needs is either
// sampled fresh or served from the shared memo, so sampled+reused is
// exactly the naive cold cost — the reused share is the saving.
type riskSweepPoint struct {
	Scenarios     int     `json:"scenarios"`
	Trials        int     `json:"trials"`
	NsPerOp       int64   `json:"ns_per_op"`
	SampledTrials int64   `json:"sampled_activity_trials"`
	ReusedTrials  int64   `json:"reused_activity_trials"`
	NaiveTrials   int64   `json:"naive_activity_trials"`
	SavingsPct    float64 `json:"sampling_savings_pct"`
	// NoRiskNs is the same sweep with the risk dimension off, and
	// ColdSimNs one cold simulation of the baseline model — so the
	// pre-memo cost of adding risk to the sweep reconstructs as
	// NoRiskNs + (scenarios+1)×ColdSimNs, against NsPerOp measured.
	NoRiskNs  int64 `json:"no_risk_ns_per_op"`
	ColdSimNs int64 `json:"cold_sim_ns_per_op"`
}

// entry is one benchstore invocation.
type entry struct {
	Label     string          `json:"label"`
	Date      string          `json:"date"`
	GoVersion string          `json:"go"`
	GOOS      string          `json:"goos"`
	GOARCH    string          `json:"goarch"`
	CPUs      int             `json:"cpus"`
	Store     []storePoint    `json:"store"`
	Scenarios []scenarioPoint `json:"scenarios"`
	// RiskSweeps holds the risk-dimension scaling family.
	RiskSweeps []riskSweepPoint `json:"risk_sweeps,omitempty"`
}

// file is the BENCH_scenarios.json document.
type file struct {
	Description string  `json:"description"`
	Benchmarks  []entry `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_scenarios.json", "trajectory file to append to")
	label := flag.String("label", "run", "label for this entry")
	entriesFlag := flag.String("entries", "100,1000,10000", "comma-separated store entry counts")
	containers := flag.Int("containers", 16, "containers in the benchmark store")
	workersFlag := flag.String("workers", "", "comma-separated scenario worker counts (default \"1,<cores>\")")
	scenariosFlag := flag.String("scenarios", "5,25,100", "comma-separated scenario counts for the risk-dimension sweep")
	riskTrials := flag.Int("risktrials", 1000, "Monte-Carlo trials per scenario in the risk-dimension sweep")
	flag.Parse()

	entrySweep, err := parseInts(*entriesFlag)
	if err != nil {
		fatal("bad -entries: %v", err)
	}
	if *workersFlag == "" {
		*workersFlag = fmt.Sprintf("1,%d", runtime.GOMAXPROCS(0))
	}
	workers, err := parseInts(*workersFlag)
	if err != nil {
		fatal("bad -workers: %v", err)
	}
	workers = dedupe(workers)
	scenarioCounts, err := parseInts(*scenariosFlag)
	if err != nil {
		fatal("bad -scenarios: %v", err)
	}

	doc := file{Description: "Copy-on-write store and scenario-engine trajectory (cmd/benchstore: Snapshot/ForkAt vs JSON clone, what-if sweeps over the E8 ASIC workload)"}
	if blob, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(blob, &doc); err != nil {
			fatal("existing %s is not a benchstore file: %v", *out, err)
		}
	}

	e := entry{
		Label: *label, Date: time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(),
	}

	for _, n := range entrySweep {
		db := populated(*containers, n)
		p := storePoint{Containers: *containers, Entries: n}
		p.SnapshotNs, _ = measure(func() error { db.Snapshot(); return nil })
		p.ForkNs, _ = measure(func() error { db.ForkAt(nil); return nil })
		p.JSONCloneNs, _ = measure(func() error { return jsonClone(db) })
		p.ForkSpeedup = float64(p.JSONCloneNs) / float64(p.ForkNs)
		fmt.Printf("store   entries=%-7d snapshot %8d ns  fork %8d ns  json-clone %10d ns  (%.0fx)\n",
			n, p.SnapshotNs, p.ForkNs, p.JSONCloneNs, p.ForkSpeedup)
		e.Store = append(e.Store, p)
	}

	edits := sweepEdits()
	for _, w := range workers {
		m := asicManager()
		opt := scenario.Options{Workers: w}
		targets := m.Schema.PrimaryOutputs()
		ns, iters := measure(func() error {
			_, err := scenario.Sweep(m, targets, edits, opt)
			return err
		})
		p := scenarioPoint{Scenarios: len(edits) + 1, Workers: w, Iterations: iters, NsPerOp: ns}
		fmt.Printf("whatif  scenarios=%-2d workers=%-2d %12d ns/op\n", p.Scenarios, w, ns)
		e.Scenarios = append(e.Scenarios, p)
	}

	for _, sc := range scenarioCounts {
		m := asicManager()
		edits := riskEdits(sc)
		targets := m.Schema.PrimaryOutputs()
		opt := scenario.Options{Risk: &scenario.RiskSpec{Trials: *riskTrials, Seed: 1995}}
		var rep *scenario.Report
		ns, _ := measure(func() error {
			r, err := scenario.Sweep(m, targets, edits, opt)
			rep = r
			return err
		})
		p := riskSweepPoint{
			Scenarios: sc, Trials: *riskTrials, NsPerOp: ns,
			SampledTrials: rep.RiskSampledTrials,
			ReusedTrials:  rep.RiskReusedTrials,
			NaiveTrials:   rep.RiskSampledTrials + rep.RiskReusedTrials,
		}
		if p.NaiveTrials > 0 {
			p.SavingsPct = 100 * float64(p.ReusedTrials) / float64(p.NaiveTrials)
		}
		p.NoRiskNs, _ = measure(func() error {
			_, err := scenario.Sweep(m, targets, edits, scenario.Options{})
			return err
		})
		tree, err := m.ExtractTree(targets...)
		if err != nil {
			fatal("%v", err)
		}
		models, err := scenario.RiskModels(m, tree)
		if err != nil {
			fatal("%v", err)
		}
		p.ColdSimNs, _ = measure(func() error {
			_, err := monte.Simulate(models, monte.Config{Trials: *riskTrials, Seed: 1995})
			return err
		})
		fmt.Printf("risk    scenarios=%-3d trials=%-6d %12d ns/op  sampled %-8d reused %-8d (%.1f%% saved)  norisk %d ns  coldsim %d ns\n",
			sc, *riskTrials, ns, p.SampledTrials, p.ReusedTrials, p.SavingsPct, p.NoRiskNs, p.ColdSimNs)
		e.RiskSweeps = append(e.RiskSweeps, p)
	}

	doc.Benchmarks = append(doc.Benchmarks, e)
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("appended entry %q to %s\n", *label, *out)
}

// populated builds a store with the given shape: entries spread evenly
// over the containers, every entry carrying a small payload.
func populated(containers, entries int) *store.DB {
	db := store.NewDB()
	at := vclock.Epoch
	names := make([]string, containers)
	for i := range names {
		names[i] = fmt.Sprintf("class%02d", i)
		if _, err := db.CreateContainer(names[i], store.ExecutionSpace, ""); err != nil {
			fatal("%v", err)
		}
	}
	for i := 0; i < entries; i++ {
		name := names[i%containers]
		if _, err := db.Put(name, at, map[string]any{"seq": i}); err != nil {
			fatal("%v", err)
		}
	}
	return db
}

// jsonClone produces an isolated copy the pre-COW way: serialize the
// whole database state and load it back.
func jsonClone(db *store.DB) error {
	blob, err := json.Marshal(db.State())
	if err != nil {
		return err
	}
	var st store.State
	if err := json.Unmarshal(blob, &st); err != nil {
		return err
	}
	_, err = store.FromState(&st)
	return err
}

// asicManager builds the E8 workload: the ASIC flow with simulated
// tools bound and primary inputs imported.
func asicManager() *engine.Manager {
	sch := workload.ASIC()
	m, err := engine.New(sch, vclock.Standard(), vclock.Epoch, "benchstore")
	if err != nil {
		fatal("%v", err)
	}
	if err := m.BindDefaults(); err != nil {
		fatal("%v", err)
	}
	for _, leaf := range sch.PrimaryInputs() {
		if _, err := m.Import(leaf, []byte("seed "+leaf)); err != nil {
			fatal("%v", err)
		}
	}
	return m
}

// riskEdits builds n single-activity perturbations cycling over the
// ASIC flow's late-stage activities — the memo's target regime, where
// each scenario dirties a shallow subtree and the baseline's upstream
// trial streams carry the rest.
func riskEdits(n int) []scenario.Edit {
	acts := []string{"DRC", "LVS", "STA", "GateSim", "Extract"}
	edits := make([]scenario.Edit, n)
	for i := range edits {
		edits[i] = scenario.Edit{
			Name:  fmt.Sprintf("s%03d", i),
			Scale: map[string]float64{acts[i%len(acts)]: 1 + 0.01*float64(i+1)},
		}
	}
	return edits
}

func sweepEdits() []scenario.Edit {
	return []scenario.Edit{
		{Name: "synth-slow", Scale: map[string]float64{"Synthesize": 1.5}},
		{Name: "route-slip", Delay: map[string]time.Duration{"Route": 24 * time.Hour}},
		{Name: "fast-sim", Scale: map[string]float64{"GateSim": 0.5}},
		{Name: "team", Parallel: true},
	}
}

// measure times one operation with testing.Benchmark, returning ns/op
// and the iteration count it settled on.
func measure(op func() error) (int64, int) {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
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
	fmt.Fprintf(os.Stderr, "benchstore: "+format+"\n", args...)
	os.Exit(1)
}
