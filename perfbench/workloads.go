package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// workload is one fixed-work traffic mix. Every round of a workload
// rebuilds the same starting state and issues the same fixed number of
// operations, so the state a round ends in never depends on how fast
// the machine was; a run repeats rounds until its time is up.
type workload struct {
	name string
	// copies is how many crash copies each round restarts.
	copies int
	// sse attaches one event-stream subscriber for the timed phase.
	sse bool
	// stateful marks workloads whose writes change what /whatif
	// answers, so equal what-if inputs are compared per store version.
	stateful bool
	gen      func(r *rand.Rand) plan
}

// plan is one round's generated inputs.
type plan struct {
	hist    history
	warm    []op   // issued during set-up, untimed
	clients [][]op // the timed phase, one closed-loop sequence per client
	pools   map[string]int
}

// Fixed operation counts per round. They are constants, not derived
// from the run length, so the end state is the same on every machine.
const (
	pmOps       = 6000 // pm-dashboards: operations per round, both clients together
	riskOps     = 2400 // risk-explore: operations per round, both clients together
	designIters = 150  // designer-durable: designer iterations per round
	histIters   = 24   // history iterations before pm-dashboards and risk-explore
	milestones  = 24   // milestones every workload's project carries
)

var workloads = []*workload{
	{name: "pm-dashboards", copies: 6, gen: genPM},
	{name: "risk-explore", copies: 6, gen: genRisk},
	{name: "designer-durable", copies: 4, sse: true, stateful: true, gen: genDesigner},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// genPM: the project-manager view. Two clients read the five snapshot
// routes; 1 op in 16 is a propagate (unconditional, since two clients
// write), which advances the store version without growing anything,
// so the per-snapshot memo keeps being invalidated and re-filled; 1 op
// in 32 each is a /risk and a /whatif from a small pool that set-up
// warms.
func genPM(r *rand.Rand) plan {
	p := plan{hist: genHistory(r, rtlLibrary(histIters), milestones)}
	seen := map[string]bool{}
	risks := genRisks(r, 4, [2]int{1000, 1000}, seen)
	whatifs := whatIfs(0, 8)
	p.warm = append(append(p.warm, risks...), whatifs...)
	for _, route := range readRoutes {
		p.warm = append(p.warm, read(route))
	}
	p.pools = map[string]int{"risk": len(risks), "whatif": len(whatifs)}
	const n = pmOps / 2
	var reads []op
	for _, route := range readRoutes {
		reads = append(reads, read(route))
	}
	for c := 0; c < 2; c++ {
		var seq []op
		seq = append(seq, cycle(n/16, []op{write("propagate", "", nil, false)})...)
		seq = append(seq, cycle(n/32, risks)...)
		seq = append(seq, cycle(n/32, whatifs)...)
		seq = append(seq, cycle(n-len(seq), reads)...)
		p.clients = append(p.clients, mix(r, seq))
	}
	return p
}

// Risk-explore pool sizes per client. The two clients draw from
// disjoint pools, so no input is ever sampled by both at once and the
// sampled-trial count repeats exactly. Together the pools hold
// 2×(riskHot+riskCold+whatifHot+whatifCold) = 304 distinct inputs, more
// than the fingerprint tier's 256 entries, while their trial streams
// stay far below monte's 256 MiB memo budget. Nine draws in ten go to
// the hot sets, so about a fifth of /risk requests reach the renderer.
const (
	riskHot, riskCold     = 24, 96
	whatifHot, whatifCold = 8, 24
)

// genRisk: planners exploring risk. Two clients send /risk and /whatif
// (3:1) drawn hot/cold (9:1) from their own pools; client 0 sends a
// propagate every 8th op, so repeated inputs must come from the
// fingerprint tier, and reads /status four ops after each propagate.
// Only client 0 reads, so every read follows a write and renders: were
// both to read, half the reads would hit the memo and the median would
// sit on the edge between the two.
func genRisk(r *rand.Rand) plan {
	p := plan{hist: genHistory(r, rtlLibrary(histIters), milestones)}
	seen := map[string]bool{}
	p.pools = map[string]int{}
	const n = riskOps / 2
	for c := 0; c < 2; c++ {
		rh, rc := genRisks(r, riskHot, [2]int{500, 1000}, seen), genRisks(r, riskCold, [2]int{500, 1000}, seen)
		first := c * (whatifHot + whatifCold)
		wh, wc := whatIfs(first, whatifHot), whatIfs(first+whatifHot, whatifCold)
		p.pools["risk"] += riskHot + riskCold
		p.pools["whatif"] += whatifHot + whatifCold
		// Of every 8 of client 0's ops, slots 3 and 7 are fixed; the
		// rest are the shuffled /risk and /whatif draws.
		free := n
		if c == 0 {
			free -= 2 * (n / 8)
		}
		risks, whatifs := free*3/4, free-free*3/4
		var qs []op
		qs = append(qs, cycle(risks*9/10, mix(r, rh))...)
		qs = append(qs, cycle(risks-risks*9/10, mix(r, rc))...)
		qs = append(qs, cycle(whatifs*9/10, mix(r, wh))...)
		qs = append(qs, cycle(whatifs-whatifs*9/10, mix(r, wc))...)
		qs = mix(r, qs)
		var seq []op
		for i := 0; i < n; i++ {
			switch {
			case i%8 == 7 && c == 0:
				seq = append(seq, write("propagate", "", nil, false))
			case i%8 == 3 && c == 0:
				seq = append(seq, read("status"))
			default:
				seq, qs = append(seq, qs[0]), qs[1:]
			}
		}
		p.clients = append(p.clients, seq)
	}
	for _, route := range readRoutes {
		p.warm = append(p.warm, read(route))
	}
	return p
}

// genDesigner: the designer loop. One designer repeats import → plan →
// run, each write carrying If-Match with the version of the previous
// response, then reads /status and /dashboard, asks /risk (a small
// pool set-up warms), sends a /whatif against the new state and reads
// /status again (a memo hit). The three kinds of read come in equal
// numbers, so the read median sits inside the middle one, the
// rendered /status, instead of on the edge between two.
func genDesigner(r *rand.Rand) plan {
	lib := rtlLibrary(4 + designIters)
	p := plan{hist: genHistory(r, lib[:4], milestones)}
	seen := map[string]bool{}
	risks := genRisks(r, 4, [2]int{1000, 1000}, seen)
	whatifs := whatIfs(0, 8)
	p.warm = append(p.warm, risks...)
	p.pools = map[string]int{"risk": len(risks), "whatif": len(whatifs)}
	var seq []op
	for i, rtl := range permuted(r, lib[4:]) {
		seq = append(seq, designerWrites(rtl)...)
		seq = append(seq,
			read("status"), read("dashboard"),
			risks[i%len(risks)],
			whatifs[i%len(whatifs)],
			read("status"),
		)
	}
	p.clients = [][]op{seq}
	return p
}

// designerWrites is one designer iteration's writes: import the RTL,
// plan, run; each carries If-Match.
func designerWrites(rtl []byte) []op {
	targets := "targets=" + strings.Join(asicTargets, ",")
	return []op{
		write("import", "class=rtl", rtl, true),
		write("plan", targets, nil, true),
		write("run", targets, nil, true),
	}
}

// describePools renders a plan's pool sizes for the diagnostics.
func describePools(p map[string]int) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%d ", k, p[k])
	}
	return s
}
