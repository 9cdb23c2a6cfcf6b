package main

import (
	"encoding/json"
	"fmt"
	"time"

	"flowsched"
)

// The traced round's in-process calls. After each HTTP operation the
// benchmark calls the public functions of the layers that operation
// went through, with the operation's inputs, inside spans. None of
// them changes what the HTTP path sees: reads go against a pinned view
// of the live project (renders and fingerprints touch no cache), and
// writes and fresh simulations replay on the shadow project, which was
// built from the same history and receives every write in the same
// order.

// writeMark records, per traced write, when it was sent and how many
// events the project held once it returned.
type writeMark struct {
	sent   time.Time
	events int
}

func (e *env) addLayer(name string, v float64) {
	e.lmu.Lock()
	e.layer[name] = append(e.layer[name], v)
	e.lmu.Unlock()
}

// firstTime reports whether key is new to the round.
func (e *env) firstTime(key string) bool {
	e.lmu.Lock()
	defer e.lmu.Unlock()
	if e.simSeen == nil {
		e.simSeen = map[string]bool{}
	}
	if e.simSeen[key] {
		return false
	}
	e.simSeen[key] = true
	return true
}

// timed runs fn in a span and returns its duration.
func (e *env) timed(name string, parent uint64, fn func()) time.Duration {
	start := e.tr.now()
	fn()
	end := e.tr.now()
	e.tr.record(span{Name: name, Parent: parent, Op: parent, Start: start, End: end})
	return time.Duration(end - start)
}

// replicate makes the in-process calls for one successful traced
// operation. id is the operation's HTTP span; lat its client latency.
func (e *env) replicate(o op, id uint64, lat time.Duration, r response, sent time.Time) error {
	switch o.kind {
	case "read":
		return e.replicateRead(o, id, lat, r)
	case "risk":
		v, err := e.live().View()
		if err != nil {
			return err
		}
		opt := flowsched.RiskOptions{Trials: o.trials, Seed: o.seed}
		e.addLayer("monte.fingerprint_us", us(e.timed("monte.fingerprint", id, func() {
			_, err = v.RiskFingerprint(asicTargets, opt)
		})))
		if err != nil || !e.firstTime(o.path) {
			return err
		}
		sv, err := e.shadow.View()
		if err != nil {
			return err
		}
		opt.NoReuse = true
		e.addLayer("monte.simulate_ms", ms(e.timed("monte.simulate", id, func() {
			_, err = sv.SimulateRiskWith(asicTargets, opt)
		})))
		return err
	case "whatif":
		edits := make([]flowsched.ScenarioEdit, len(o.edits))
		for i, s := range o.edits {
			ed, err := flowsched.ParseScenarioEdit(s)
			if err != nil {
				return err
			}
			edits[i] = ed
		}
		v, err := e.live().View()
		if err != nil {
			return err
		}
		e.addLayer("scenario.fingerprint_us", us(e.timed("scenario.fingerprint", id, func() {
			_, err = v.WhatIfFingerprint(asicTargets, edits, flowsched.ScenarioOptions{})
		})))
		if err != nil || !e.firstTime(fmt.Sprintf("%s@%d", o.path, e.shadow.Version())) {
			return err
		}
		sv, err := e.shadow.View()
		if err != nil {
			return err
		}
		e.addLayer("scenario.sweep_ms", ms(e.timed("scenario.sweep", id, func() {
			_, err = sv.Scenarios(asicTargets, edits, flowsched.ScenarioOptions{})
		})))
		return err
	case "write":
		d, err := e.shadowWrite(o.route, o.body, id)
		if err != nil {
			return err
		}
		if e.shadow.Version() != r.version {
			return fmt.Errorf("shadow %s: version %d, served project at %d", o.route, e.shadow.Version(), r.version)
		}
		e.addLayer("serve.write_self_us", us(lat-d))
		e.markWrite(sent)
	}
	return nil
}

// markWrite notes a write sent at sent, once it has returned, for
// attributing events to it (see sseLag).
func (e *env) markWrite(sent time.Time) {
	e.lmu.Lock()
	e.writeMark = append(e.writeMark, writeMark{sent: sent, events: e.live().EventCount()})
	e.lmu.Unlock()
}

// shadowWrite replays one facade write on the shadow project in an
// "engine.<route>" span under parent. The shadow's disk operations
// nest under it, so its self time is the engine's share without
// persist.
func (e *env) shadowWrite(route string, body []byte, parent uint64) (time.Duration, error) {
	sid := e.tr.newID()
	e.shadowFS.setParent(sid)
	start := e.tr.now()
	var err error
	switch route {
	case "import":
		_, err = e.shadow.Import("rtl", body)
	case "plan":
		_, err = e.shadow.Plan(asicTargets, flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{})
	case "run":
		_, err = e.shadow.RunWith(asicTargets, flowsched.RunOptions{AutoComplete: true})
	case "propagate":
		_, err = e.shadow.Propagate()
	default:
		err = fmt.Errorf("no shadow replay for %s", route)
	}
	end := e.tr.now()
	e.shadowFS.setParent(0)
	e.tr.record(span{ID: sid, Parent: parent, Op: parent, Name: "engine." + route, Start: start, End: end})
	if err != nil {
		return 0, fmt.Errorf("shadow %s: %w", route, err)
	}
	return time.Duration(end - start), nil
}

// replicateRead pins a view of the live project and, when the server
// had to render (a memo miss), renders and marshals the same route.
func (e *env) replicateRead(o op, id uint64, lat time.Duration, r response) error {
	var v *flowsched.ProjectView
	var err error
	inproc := e.timed("flowsched.view", id, func() { v, err = e.live().View() })
	if err != nil {
		return err
	}
	e.addLayer("flowsched.view_us", us(inproc))
	if r.cache == "miss" {
		d, err := e.render(v, o.route, id)
		if err != nil {
			return err
		}
		inproc += d
	}
	e.addLayer("serve.read_self_us", us(lat-inproc))
	return e.priceObs(o, id)
}

// render renders route from v in a span and, for a JSON route, marshals
// the result in another, as the server does; it records both as layer
// samples and returns their total time.
func (e *env) render(v *flowsched.ProjectView, route string, parent uint64) (time.Duration, error) {
	var out any
	var err error
	d := e.timed("render."+route, parent, func() {
		switch route {
		case "status":
			var rows []flowsched.ActivityStatus
			rows, err = v.Status()
			out = struct {
				Now         time.Time                  `json:"now"`
				PlanVersion int                        `json:"planVersion"`
				Activities  []flowsched.ActivityStatus `json:"activities"`
			}{v.Now(), v.PlanVersion(), rows}
		case "dashboard":
			_, err = v.Dashboard()
		case "gantt":
			_, err = v.Gantt()
		case "analyze":
			out, err = v.Analyze()
		case "milestones":
			var rows []flowsched.MilestoneStatus
			rows, err = v.MilestoneReport()
			out = struct {
				Now        time.Time                   `json:"now"`
				Milestones []flowsched.MilestoneStatus `json:"milestones"`
			}{v.Now(), rows}
		}
	})
	if err != nil {
		return 0, err
	}
	e.addLayer("render."+route+"_ms", ms(d))
	if out == nil {
		return d, nil
	}
	m := e.timed("marshal", parent, func() { _, err = json.MarshalIndent(out, "", "  ") })
	if err != nil {
		return 0, err
	}
	e.addLayer("marshal.us", us(m))
	return d + m, nil
}

// priceObs sends every eighth traced read to the two standalone
// servers over the live project, one with request observability and
// one without, alternating which goes first.
func (e *env) priceObs(o op, id uint64) error {
	e.lmu.Lock()
	e.obsReads++
	n := e.obsReads
	e.lmu.Unlock()
	if n%8 != 0 {
		return nil
	}
	order := []*standalone{e.plain, e.bare}
	if n%16 == 0 {
		order[0], order[1] = order[1], order[0]
	}
	for _, st := range order {
		t := time.Now()
		r, err := e.do("GET", st.base+o.path, nil, 0)
		lat := time.Since(t)
		if err != nil {
			return err
		}
		if r.status != 200 {
			return fmt.Errorf("standalone %s: status %d", o.path, r.status)
		}
		name := "obs.plain_us"
		if st == e.bare {
			name = "obs.bare_us"
		}
		e.addLayer(name, us(lat))
	}
	return nil
}

// layerFromSpans derives the span-based per-layer samples of a traced
// round: engine self times (facade writes minus their disk
// operations) and checkpoint times: those the served project took
// inside timed operations or, when it took none, the shadow's.
func (e *env) layerFromSpans(res *roundResult) {
	self := selfTimes(res.spans)
	var live, shadow []float64
	for _, s := range res.spans {
		switch s.Name {
		case "engine.import", "engine.plan", "engine.run", "engine.propagate":
			e.addLayer(s.Name+"_ms", ms(self[s.ID]))
		case "persist.checkpoint":
			if s.Parent != 0 {
				live = append(live, ms(s.dur()))
			}
		case "shadow.checkpoint":
			shadow = append(shadow, ms(s.dur()))
		}
	}
	if len(live) == 0 {
		live = shadow
	}
	for _, v := range live {
		e.addLayer("persist.checkpoint_ms", v)
	}
}
