package flowsched

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Op is one Level-3 write as a value: plan, run, track, complete,
// import, milestone, propagate or edit (paper §III–IV). ParseOp is the
// one grammar of these writes — the HTTP write routes, hercules' write
// commands and serve's virtual-time schedules all build their ops with
// it — String is its canonical form, and Apply runs the op against a
// project. Fields a kind does not use stay zero.
type Op struct {
	Kind string // one of OpKinds

	Targets      []string  // plan, run: empty means the tracked plan's targets
	Hours        int       // plan: fixed estimate per activity
	Parallel     bool      // run: overlap independent branches
	AutoComplete bool      // run: link finished activities to their final data
	Activity     string    // complete
	Entity       string    // complete: the final design-data instance
	Class        string    // import, milestone
	Name         string    // milestone
	Target       time.Time // milestone
	Spec         string    // edit: a what-if edit in ParseScenarioEdit syntax
	Body         []byte    // import: the entity content; track: actuals CSV rows

	// Recovery is the fault-tolerance policy a run executes under. It is
	// a session setting, not part of the grammar: ParseOp leaves it zero
	// and String omits it.
	Recovery Recovery
}

// OpKinds lists the write kinds ParseOp accepts.
var OpKinds = []string{"plan", "run", "track", "complete", "import", "milestone", "propagate", "edit"}

// defaultOpHours is a plan's estimate per activity without ?hours.
const defaultOpHours = 8

// milestoneMinute is the short milestone date form, read as UTC.
const milestoneMinute = "2006-01-02T15:04"

// ParseOp parses one write from its kind, its named parameters and its
// body (read by import and track only). The keys are the HTTP write
// routes' query keys: targets=a,b and hours=8 (plan); targets,
// parallel=false and autocomplete=true (run); activity and entity
// (complete); class (import); name, class and target (milestone, the
// date in RFC 3339 or 2006-01-02T15:04 UTC); spec (edit). Unknown keys
// are ignored, so a front end may mix in its own.
func ParseOp(kind string, q url.Values, body []byte) (Op, error) {
	o := Op{Kind: kind}
	var err error
	switch kind {
	case "plan":
		o.Targets = splitTargets(q.Get("targets"))
		o.Hours = defaultOpHours
		if raw := q.Get("hours"); raw != "" {
			if o.Hours, err = strconv.Atoi(raw); err != nil || o.Hours <= 0 {
				err = fmt.Errorf("bad hours %q: want a positive integer", raw)
			}
		}
	case "run":
		o.Targets = splitTargets(q.Get("targets"))
		if o.Parallel, err = boolParam(q, "parallel", false); err == nil {
			o.AutoComplete, err = boolParam(q, "autocomplete", true)
		}
	case "track":
		o.Body = body
	case "complete":
		o.Activity, o.Entity = q.Get("activity"), q.Get("entity")
		switch {
		case o.Activity == "":
			err = errors.New("missing activity: pass ?activity=Name")
		case o.Entity == "":
			err = errors.New("missing entity: pass ?entity=id (the final design data instance)")
		}
	case "import":
		o.Class, o.Body = q.Get("class"), body
		if o.Class == "" {
			err = errors.New("missing class: pass ?class=name")
		}
	case "milestone":
		o.Name, o.Class = q.Get("name"), q.Get("class")
		if raw := q.Get("target"); o.Name == "" || o.Class == "" || raw == "" {
			err = fmt.Errorf("milestone needs ?name=&class=&target=RFC3339|%s", milestoneMinute)
		} else {
			o.Target, err = parseMilestoneDate(raw)
		}
	case "propagate":
	case "edit":
		if o.Spec = q.Get("spec"); o.Spec == "" {
			err = errors.New("missing spec: pass ?spec=name=Act*1.5;Act+3h")
		} else {
			_, err = ParseScenarioEdit(o.Spec)
		}
	default:
		err = fmt.Errorf("unknown op %q: want %s", kind, strings.Join(OpKinds, "|"))
	}
	if err != nil {
		return Op{}, err
	}
	return o, nil
}

func splitTargets(raw string) []string {
	if raw == "" {
		return nil
	}
	return strings.Split(raw, ",")
}

func boolParam(q url.Values, name string, def bool) (bool, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	b, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("bad %s %q: want true|false", name, raw)
	}
	return b, nil
}

// parseMilestoneDate reads RFC 3339 or the minute form in UTC. A zero
// offset is pinned to UTC: where Local is UTC, time.Parse returns Local
// for "+00:00", which String's "Z" would not parse back to.
func parseMilestoneDate(raw string) (time.Time, error) {
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		if t, err = time.Parse(milestoneMinute, raw); err != nil {
			return time.Time{}, fmt.Errorf("bad target date %q: want RFC 3339 or %s", raw, milestoneMinute)
		}
	}
	if _, off := t.Zone(); off == 0 {
		t = t.UTC()
	}
	return t, nil
}

// String is the op's canonical form, kind?query with the keys sorted and
// defaults omitted; ParseOp of its parts, with the op's Body, returns an
// equal op. The body is not part of it.
func (o Op) String() string {
	q := url.Values{}
	if len(o.Targets) > 0 {
		q.Set("targets", strings.Join(o.Targets, ","))
	}
	switch o.Kind {
	case "plan":
		if o.Hours != defaultOpHours {
			q.Set("hours", strconv.Itoa(o.Hours))
		}
	case "run":
		if o.Parallel {
			q.Set("parallel", "true")
		}
		if !o.AutoComplete {
			q.Set("autocomplete", "false")
		}
	case "complete":
		q = url.Values{"activity": {o.Activity}, "entity": {o.Entity}}
	case "import":
		q = url.Values{"class": {o.Class}}
	case "milestone":
		q = url.Values{"name": {o.Name}, "class": {o.Class}, "target": {o.Target.Format(time.RFC3339Nano)}}
	case "edit":
		q = url.Values{"spec": {o.Spec}}
	}
	if len(q) == 0 {
		return o.Kind
	}
	return o.Kind + "?" + q.Encode()
}

// MarshalText encodes the op as its String form.
func (o Op) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses an op's String form (with no body).
func (o *Op) UnmarshalText(b []byte) error {
	kind, query, _ := strings.Cut(string(b), "?")
	q, err := url.ParseQuery(query)
	if err != nil {
		return err
	}
	*o, err = ParseOp(kind, q, nil)
	return err
}

// OpResult is what an applied op did, for its front end to format.
type OpResult struct {
	Targets []string     // plan, run: the targets, after the default-target rule
	Plan    *Plan        // plan: the new tracked plan
	Run     *ExecResult  // run
	ID      string       // import: the filed entity instance
	Applied int          // track: the actuals rows applied
	Finish  time.Time    // propagate: the projected project finish
	Edit    ScenarioEdit // edit: the edit now in effect
}

// Apply runs the op against p; the caller holds p's write lock. A plan
// or run without targets takes the tracked plan's, and is an error
// before the first plan. A failed run returns *ExecError.
func (o Op) Apply(p *Project) (OpResult, error) {
	var r OpResult
	var err error
	switch o.Kind {
	case "plan", "run":
		if r.Targets = o.Targets; len(r.Targets) == 0 {
			if pl := p.CurrentPlan(); pl != nil && len(pl.Targets) > 0 {
				r.Targets = pl.Targets // CurrentPlan returns a copy
			} else {
				return r, errors.New("no targets: pass ?targets=a,b or plan first")
			}
		}
		if o.Kind == "plan" {
			r.Plan, err = p.Plan(r.Targets, Fixed{Default: time.Duration(o.Hours) * time.Hour}, PlanOptions{})
		} else {
			r.Run, err = p.RunWith(r.Targets, RunOptions{AutoComplete: o.AutoComplete, Parallel: o.Parallel, Recovery: o.Recovery})
		}
	case "track":
		r.Applied, err = p.ImportActualsCSV(bytes.NewReader(o.Body))
	case "complete":
		err = p.Complete(o.Activity, o.Entity)
	case "import":
		r.ID, err = p.Import(o.Class, o.Body)
	case "milestone":
		err = p.SetMilestone(o.Name, o.Class, o.Target)
	case "propagate":
		r.Finish, err = p.Propagate()
	case "edit":
		if r.Edit, err = ParseScenarioEdit(o.Spec); err == nil {
			err = p.ApplyScenarioEdit(r.Edit)
		}
	default:
		err = fmt.Errorf("unknown op %q", o.Kind)
	}
	return r, err
}
