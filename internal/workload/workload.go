// Package workload generates the design flows used by the examples,
// experiments, and benchmarks: the paper's Fig. 4 circuit schema, a
// realistic ASIC implementation flow, and parameterized layered DAG flows
// for scaling sweeps (experiment E3 in DESIGN.md).
package workload

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"flowsched/internal/sched"
	"flowsched/internal/schema"
)

// Fig4Source is the paper's Fig. 4 example task schema in DSL form.
const Fig4Source = `
schema circuit
data netlist, stimuli, performance
tool editor, simulator
rule Create:   netlist     <- editor()
rule Simulate: performance <- simulator(netlist, stimuli)
`

// Fig4 returns the paper's example schema: a netlist is created with an
// editor; a circuit simulator applied to netlist and stimuli yields a
// performance report.
func Fig4() *schema.Schema { return schema.MustParse(Fig4Source) }

// ASICSource is a realistic RTL-to-signoff implementation flow.
const ASICSource = `
schema asic
data rtl, constraints, testbench
data netlist, floorplan, layout, parasitics
data drcreport, lvsreport, timingreport, simreport
tool synthesizer, planner, router, extractor, checker, lvs, sta, simulator
rule Synthesize: netlist      <- synthesizer(rtl, constraints)
rule Floorplan:  floorplan    <- planner(netlist)
rule Route:      layout       <- router(netlist, floorplan)
rule Extract:    parasitics   <- extractor(layout)
rule DRC:        drcreport    <- checker(layout)
rule LVS:        lvsreport    <- lvs(layout, netlist)
rule STA:        timingreport <- sta(netlist, parasitics, constraints)
rule GateSim:    simreport    <- simulator(netlist, testbench)
`

// ASIC returns the RTL-to-signoff flow used by the chipdesign example.
func ASIC() *schema.Schema { return schema.MustParse(ASICSource) }

// BoardSource is a printed-circuit-board design flow: schematic capture
// through fabrication outputs.
const BoardSource = `
schema board
data requirements, schematic, bomlist, placement, routedpcb, drcreport, gerbers
tool editor, bomtool, placer, router, checker, camtool
rule Capture:  schematic <- editor(requirements)
rule BOM:      bomlist   <- bomtool(schematic)
rule Place:    placement <- placer(schematic)
rule RoutePCB: routedpcb <- router(placement, schematic)
rule CheckPCB: drcreport <- checker(routedpcb)
rule CAM:      gerbers   <- camtool(routedpcb, bomlist)
`

// Board returns the PCB design flow.
func Board() *schema.Schema { return schema.MustParse(BoardSource) }

// AnalogSource is an analog/mixed-signal block flow: schematic, sizing,
// simulation corners, layout, and extraction-verified resimulation.
const AnalogSource = `
schema analog
data spec, schematic, sizednetlist, tbvectors, simreport, layout, extracted, postsim
tool editor, sizer, simulator, layouter, extractor
rule Draw:    schematic    <- editor(spec)
rule Size:    sizednetlist <- sizer(schematic, spec)
rule SimPre:  simreport    <- simulator(sizednetlist, tbvectors)
rule Layout:  layout       <- layouter(sizednetlist)
rule Extract: extracted    <- extractor(layout)
rule SimPost: postsim      <- simulator(extracted, tbvectors)
`

// Analog returns the analog block flow. Note the simulator tool class is
// applied by two different activities (pre- and post-layout simulation),
// exercising the paper's "tools are not tied to specific tasks".
func Analog() *schema.Schema { return schema.MustParse(AnalogSource) }

// SchemaUsage names the schemas SchemaSource resolves.
const SchemaUsage = "builtin:fig4|builtin:asic|builtin:board|builtin:analog|<path>"

// Builtins are the builtin schema sources by kind ("builtin:<kind>").
var Builtins = map[string]string{
	"fig4": Fig4Source, "asic": ASICSource, "board": BoardSource, "analog": AnalogSource,
}

// SchemaSource resolves a schema name as the command-line tools take
// it: a builtin named in SchemaUsage, or the path of a DSL file.
func SchemaSource(name string) (string, error) {
	if kind, ok := strings.CutPrefix(name, "builtin:"); ok && Builtins[kind] != "" {
		return Builtins[kind], nil
	}
	b, err := os.ReadFile(name)
	return string(b), err
}

// LayeredConfig parameterizes a synthetic layered flow.
type LayeredConfig struct {
	// Depth is the number of activity layers (>= 1).
	Depth int
	// Width is the number of activities per layer (>= 1).
	Width int
	// FanIn is the number of previous-layer inputs per activity
	// (clamped to Width; >= 1).
	FanIn int
	// Seed drives input selection.
	Seed int64
}

// Layered generates a layered DAG flow: Width primary inputs feed Depth
// layers of Width activities each, every activity consuming FanIn
// distinct outputs of the previous layer. The result has Depth*Width
// activities and deterministic structure per seed.
func Layered(cfg LayeredConfig) (*schema.Schema, error) {
	if cfg.Depth < 1 || cfg.Width < 1 {
		return nil, fmt.Errorf("workload: depth %d and width %d must be >= 1", cfg.Depth, cfg.Width)
	}
	if cfg.FanIn < 1 {
		cfg.FanIn = 1
	}
	if cfg.FanIn > cfg.Width {
		cfg.FanIn = cfg.Width
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := schema.New(fmt.Sprintf("layered_d%d_w%d", cfg.Depth, cfg.Width))
	if _, err := s.AddToolClass("xfrm"); err != nil {
		return nil, err
	}
	prev := make([]string, cfg.Width)
	for w := 0; w < cfg.Width; w++ {
		name := fmt.Sprintf("in%d", w)
		if _, err := s.AddDataClass(name); err != nil {
			return nil, err
		}
		prev[w] = name
	}
	for d := 1; d <= cfg.Depth; d++ {
		cur := make([]string, cfg.Width)
		for w := 0; w < cfg.Width; w++ {
			out := fmt.Sprintf("d%dw%d", d, w)
			if _, err := s.AddDataClass(out); err != nil {
				return nil, err
			}
			inputs := pick(rng, prev, cfg.FanIn, w)
			act := fmt.Sprintf("A_%d_%d", d, w)
			if _, err := s.AddRule(act, out, "xfrm", inputs...); err != nil {
				return nil, err
			}
			cur[w] = out
		}
		prev = cur
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// pick selects k distinct elements of prev, always including prev[anchor]
// so every chain stays connected.
func pick(rng *rand.Rand, prev []string, k, anchor int) []string {
	anchor = anchor % len(prev)
	out := []string{prev[anchor]}
	perm := rng.Perm(len(prev))
	for _, i := range perm {
		if len(out) == k {
			break
		}
		if i == anchor {
			continue
		}
		out = append(out, prev[i])
	}
	return out
}

// Estimates builds a fixed estimator assigning each activity a working
// time of base ± jitter (fraction), deterministic per seed.
func Estimates(sch *schema.Schema, base time.Duration, jitter float64, seed int64) (sched.Fixed, error) {
	if base <= 0 {
		return sched.Fixed{}, fmt.Errorf("workload: base estimate must be positive")
	}
	if jitter < 0 || jitter >= 1 {
		return sched.Fixed{}, fmt.Errorf("workload: jitter %v out of [0,1)", jitter)
	}
	rng := rand.New(rand.NewSource(seed))
	m := make(map[string]time.Duration)
	for _, r := range sch.Rules() {
		spread := 1 + jitter*(2*rng.Float64()-1)
		m[r.Activity] = time.Duration(float64(base) * spread)
	}
	return sched.Fixed{ByActivity: m}, nil
}

// Assignments distributes activities round-robin over a team,
// deterministically.
func Assignments(sch *schema.Schema, team []string) map[string][]string {
	if len(team) == 0 {
		return nil
	}
	out := make(map[string][]string)
	for i, r := range sch.Rules() {
		out[r.Activity] = []string{team[i%len(team)]}
	}
	return out
}

// ThreePoints derives PERT three-point estimates from a fixed table by
// spreading each point estimate into (0.6x, x, 1.8x).
func ThreePoints(f sched.Fixed) sched.PERT {
	out := sched.PERT{ByActivity: make(map[string]sched.ThreePoint, len(f.ByActivity))}
	for act, d := range f.ByActivity {
		out.ByActivity[act] = sched.ThreePoint{
			Optimistic:  time.Duration(float64(d) * 0.6),
			Likely:      d,
			Pessimistic: time.Duration(float64(d) * 1.8),
		}
	}
	return out
}
