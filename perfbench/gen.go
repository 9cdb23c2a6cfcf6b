package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"time"
)

// The seeded input generators. The benchmark takes the seed as an
// argument; the program under test only ever receives the inputs drawn
// here (design data contents, milestone targets, request parameters).
//
// The seed decides order and choice, never the amount of work: every
// count is fixed per workload, mixes are exact counts shuffled rather
// than independent draws, and RTL revisions come from one fixed library
// that the seed permutes. The simulated tools derive their behaviour
// from their input contents, so drawing fresh RTL per seed would change
// how many tool iterations a round executes, and with it every
// latency, from one seed to the next.

// asicTargets are the sign-off reports of the ASIC flow; every plan,
// run, risk analysis and what-if sweep is toward them.
var asicTargets = []string{"drcreport", "lvsreport", "timingreport", "simreport"}

// asicActivities are the ASIC flow's activities, edited by what-ifs.
var asicActivities = []string{"Synthesize", "Floorplan", "Route", "Extract", "DRC", "LVS", "STA", "GateSim"}

// readRoutes are the snapshot read routes a project manager reads.
var readRoutes = []string{"status", "dashboard", "gantt", "analyze", "milestones"}

// op is one HTTP operation against the project.
type op struct {
	kind    string // "read", "write", "risk" or "whatif"
	route   string // server route name, e.g. "dashboard" or "import"
	method  string
	path    string // path and query below /p/{id}
	body    []byte
	ifMatch bool // carry the last seen store version as If-Match

	seed   int64    // /risk
	trials int      // /risk
	edits  []string // /whatif
}

func read(route string) op { return op{kind: "read", route: route, method: "GET", path: "/" + route} }

func write(route, query string, body []byte, ifMatch bool) op {
	path := "/" + route
	if query != "" {
		path += "?" + query
	}
	return op{kind: "write", route: route, method: "POST", path: path, body: body, ifMatch: ifMatch}
}

func riskOp(seed int64, trials int) op {
	return op{kind: "risk", route: "risk", method: "GET",
		path: fmt.Sprintf("/risk?seed=%d&trials=%d", seed, trials), seed: seed, trials: trials}
}

func whatifOp(specs []string) op {
	return op{kind: "whatif", route: "whatif", method: "GET",
		path: "/whatif?" + url.Values{"edit": specs}.Encode(), edits: specs}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mix returns the ops in a seeded random order.
func mix(r *rand.Rand, ops []op) []op {
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// cycle returns n ops taking pool's entries in turn.
func cycle(n int, pool []op) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = pool[i%len(pool)]
	}
	return out
}

// milestone is one committed target date, as a working-day offset from
// the project's virtual now at set-up.
type milestone struct {
	name, class string
	days        int
}

// history is the project state every workload starts from.
type history struct {
	primary    map[string][]byte // constraints, testbench
	rtl        [][]byte          // one RTL revision per import→plan→run iteration
	milestones []milestone
}

// librarySeed fixes the RTL revision library and the primary inputs.
const librarySeed = 1995

// rtlBytes is the size of every RTL revision, so the bytes the log
// writes per import do not depend on the seed either.
const rtlBytes = 256

// rtlLibrary returns n fixed RTL revisions.
func rtlLibrary(n int) [][]byte {
	r := newRand(librarySeed)
	out := make([][]byte, n)
	for i := range out {
		out[i] = genBytes(r, rtlBytes)
	}
	return out
}

func genBytes(r *rand.Rand, n int) []byte {
	const hex = "0123456789abcdef"
	b := make([]byte, n)
	for i := range b {
		b[i] = hex[r.Intn(len(hex))]
	}
	return b
}

// permuted returns revs in a seeded random order.
func permuted(r *rand.Rand, revs [][]byte) [][]byte {
	out := append([][]byte(nil), revs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// genHistory builds the starting history from the given RTL revisions
// and a fixed set of milestones whose names the seed assigns. The seed
// orders every revision but the last: the current revision is what
// what-if forks re-execute, so it stays the same for every seed.
func genHistory(r *rand.Rand, rtl [][]byte, milestones int) history {
	fixed := newRand(librarySeed + 1)
	last := len(rtl) - 1
	h := history{
		primary: map[string][]byte{"constraints": genBytes(fixed, 64), "testbench": genBytes(fixed, 128)},
		rtl:     append(permuted(r, rtl[:last]), rtl[last]),
	}
	// Targets stay within the plan horizon (at most ten working days
	// out): the calendar walks day by day between a milestone and its
	// reference date, so far-future targets would make every dashboard
	// read slower in proportion to the distance.
	classes := []string{"netlist", "layout", "timingreport", "drcreport", "lvsreport", "simreport"}
	names := r.Perm(milestones)
	for i := 0; i < milestones; i++ {
		h.milestones = append(h.milestones, milestone{
			name:  fmt.Sprintf("m%02d", names[i]),
			class: classes[i%len(classes)],
			days:  1 + i%10,
		})
	}
	return h
}

// workDays converts working days to a wall duration on the standard
// calendar's five-day week, rounding to whole calendar days.
func workDays(d int) time.Duration {
	return time.Duration(d/5*7+d%5) * 24 * time.Hour
}

// edit is one what-if edit spec on act: a runtime scale or an injected
// delay, sized by step.
func edit(name, act string, scale bool, step int) string {
	if scale {
		return fmt.Sprintf("%s=%s*%.1f", name, act, 1.1+0.1*float64(step%10))
	}
	return fmt.Sprintf("%s=%s+%dh", name, act, 1+step%16)
}

// whatIfs returns the what-if sweeps numbered first to first+n-1. They
// are the same for every seed, which only orders them: a sweep's cost
// depends on which activities it edits and by how much (a longer
// virtual schedule means longer calendar walks), so seeded edits would
// make the what-if latency a property of the seed. Sweep k edits
// activity k mod 8; every other sweep edits a second activity, so a
// sweep runs two or three forks counting the baseline; scales and
// delays alternate, sized by k/8. Numbers below 80 give distinct
// sweeps.
func whatIfs(first, n int) []op {
	var out []op
	for k := first; k < first+n; k++ {
		step := k / len(asicActivities)
		specs := []string{edit("a", asicActivities[k%len(asicActivities)], k%4 < 2, step)}
		if k%2 == 1 {
			specs = append(specs, edit("b", asicActivities[(k+3)%len(asicActivities)], k%4 >= 2, step))
		}
		out = append(out, whatifOp(specs))
	}
	return out
}

// genRisks draws n distinct /risk inputs, alternating the two trial
// counts.
func genRisks(r *rand.Rand, n int, trials [2]int, seen map[string]bool) []op {
	var out []op
	for len(out) < n {
		if o := riskOp(r.Int63n(1<<31), trials[len(out)%2]); !seen[o.path] {
			seen[o.path] = true
			out = append(out, o)
		}
	}
	return out
}
