package fault

import (
	"bytes"
	"fmt"
	"time"

	"flowsched/internal/tools"
)

// corruptMarker prefixes garbled output so Check can detect it — the
// stand-in for a checksum mismatch on real design data.
var corruptMarker = []byte("\x00!fault:corrupt!\x00")

// IsCorrupt reports whether output bytes carry the corruption marker.
func IsCorrupt(b []byte) bool { return bytes.HasPrefix(b, corruptMarker) }

// Check is an output verifier in the shape engine recovery expects: it
// fails on corrupted bytes, forcing the engine to iterate the activity
// instead of accepting bad data.
func Check(activity string, output []byte) error {
	if IsCorrupt(output) {
		return fmt.Errorf("fault: %s output failed verification (corrupted)", activity)
	}
	return nil
}

// Injector wraps a tools.Tool with the plan's faults. It implements
// tools.Tool; Wrap returns a variant that also forwards Profile() when
// the inner tool exposes one, so risk analysis and profile-derived
// estimates keep working on chaos-wrapped registries.
type Injector struct {
	inner    tools.Tool
	plan     *Plan
	activity string
	now      func() time.Time
}

var _ tools.Tool = (*Injector)(nil)

// Wrap binds a tool into the plan for one activity. The now function
// supplies the virtual clock for license windows; nil disables them for
// this tool. Wrapping a tool already wrapped by this plan returns it
// unchanged (a facade's chaos setup is idempotent); one wrapped by a
// different plan is rewrapped around the original tool, so arming a new
// plan replaces the old faults instead of stacking them.
func (p *Plan) Wrap(activity string, t tools.Tool, now func() time.Time) tools.Tool {
	if t == nil || p == nil {
		return t
	}
	switch prev := t.(type) {
	case *Injector:
		if prev.plan == p {
			return t
		}
		t = prev.inner
	case *profiledInjector:
		if prev.plan == p {
			return t
		}
		t = prev.Injector.inner
	}
	inj := &Injector{inner: t, plan: p, activity: activity, now: now}
	if pt, ok := t.(interface{ Profile() tools.Profile }); ok {
		return &profiledInjector{Injector: *inj, prof: pt}
	}
	return inj
}

// Instance forwards the inner tool's instance ref, so run metadata and
// failover rotation stay truthful about which tool actually executed.
func (i *Injector) Instance() string { return i.inner.Instance() }

// Class forwards the inner tool class.
func (i *Injector) Class() string { return i.inner.Class() }

// Unwrap returns the wrapped tool.
func (i *Injector) Unwrap() tools.Tool { return i.inner }

// Run applies the plan's fault decision, then (except for license loss)
// the inner tool.
func (i *Injector) Run(inputs map[string][]byte, iteration int) (tools.Result, error) {
	var at time.Time
	if i.now != nil {
		at = i.now()
	}
	d := i.plan.decide(i.activity, i.inner.Class(), at)
	switch d.kind {
	case License:
		// Fail fast: the tool never launches, so the run burns only the
		// probe time, and the error tells backoff when to come back.
		return tools.Result{Work: 5 * time.Minute},
			&LicenseError{Class: i.inner.Class(), Until: d.until}
	case Crash:
		res, err := i.inner.Run(inputs, iteration)
		if err != nil {
			return res, err // the tool failed on its own first
		}
		return tools.Result{Work: time.Duration(float64(res.Work) * d.workFrac)},
			&CrashError{Activity: i.activity, Attempt: d.attempt}
	case Hang:
		res, err := i.inner.Run(inputs, iteration)
		if err != nil {
			return res, err
		}
		// The run eventually finishes with its real output, but only
		// after consuming the hang's virtual working time; a run
		// deadline aborts it long before.
		res.Work = i.plan.cfg.HangWork
		return res, nil
	case Corrupt:
		res, err := i.inner.Run(inputs, iteration)
		if err != nil {
			return res, err
		}
		res.Output = corrupt(res.Output)
		return res, nil
	default:
		return i.inner.Run(inputs, iteration)
	}
}

// corrupt garbles output deterministically: marker prefix plus a bit
// flip over the payload.
func corrupt(b []byte) []byte {
	out := make([]byte, 0, len(corruptMarker)+len(b))
	out = append(out, corruptMarker...)
	for _, c := range b {
		out = append(out, c^0xA5)
	}
	return out
}

// profiledInjector is an Injector whose inner tool exposes a simulation
// profile; it forwards Profile so the wrapped registry still supports
// risk analysis and profile-derived estimation.
type profiledInjector struct {
	Injector
	prof interface{ Profile() tools.Profile }
}

// Profile forwards the inner tool's profile.
func (i *profiledInjector) Profile() tools.Profile { return i.prof.Profile() }

// WrapRegistry wraps every binding (including alternates) of every
// activity in the registry with the plan's faults. The now function
// supplies the virtual clock for license windows.
func (p *Plan) WrapRegistry(r *tools.Registry, now func() time.Time) error {
	if r == nil {
		return fmt.Errorf("fault: nil registry")
	}
	for _, act := range r.Activities() {
		bound := r.Bound(act)
		for idx, t := range bound {
			bound[idx] = p.Wrap(act, t, now)
		}
		if err := r.Bind(act, bound[0]); err != nil {
			return err
		}
		for _, t := range bound[1:] {
			if err := r.AddAlternate(act, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rebind moves every fault injector bound in r onto p, reading license
// windows on the clock now; tools without an injector are left alone,
// and each activity keeps its failover rotation. A forked project calls
// it on its cloned registry with the fork of the parent's plan.
func (p *Plan) Rebind(r *tools.Registry, now func() time.Time) {
	r.Map(func(activity string, t tools.Tool) tools.Tool {
		switch t.(type) {
		case *Injector, *profiledInjector:
			return p.Wrap(activity, t, now)
		}
		return t
	})
}
