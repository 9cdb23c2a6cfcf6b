// Package query implements §IV.B of the paper: queries into the task
// database for schedule status, schedule data, and schedule metadata.
//
// Two kinds of query are supported, mirroring the paper:
//
//   - queries into design schedule *data* — e.g. "the duration of an
//     activity the last time it was performed", usable to predict the
//     duration of the present design;
//   - queries into design schedule *metadata* — e.g. which schedule plans
//     were used to create the present plan, showing the evolution of a
//     design schedule.
//
// The typed API (Engine methods) backs the public library; Eval adds the
// small textual query language used by the hercules CLI.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"flowsched/internal/meta"
	"flowsched/internal/sched"
)

// Engine answers queries over one task database.
type Engine struct {
	Sched *sched.Space
	Exec  *meta.Space // optional; enables run-level queries
}

// New builds a query engine. Sched is required.
func New(s *sched.Space, e *meta.Space) (*Engine, error) {
	if s == nil {
		return nil, fmt.Errorf("query: nil schedule space")
	}
	return &Engine{Sched: s, Exec: e}, nil
}

// LastDuration reports the actual working duration of the most recent
// completed schedule instance of the activity.
func (q *Engine) LastDuration(activity string) (time.Duration, error) {
	_, insts, err := q.Sched.History(activity)
	if err != nil {
		return 0, err
	}
	for i := len(insts) - 1; i >= 0; i-- {
		in := insts[i]
		if in.Done && !in.ActualStart.IsZero() {
			return q.Sched.Calendar.WorkBetween(in.ActualStart, in.ActualFinish), nil
		}
	}
	return 0, fmt.Errorf("query: activity %q has no completed executions", activity)
}

// Durations reports every completed actual working duration of an
// activity, oldest first.
func (q *Engine) Durations(activity string) ([]time.Duration, error) {
	_, insts, err := q.Sched.History(activity)
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for _, in := range insts {
		if in.Done && !in.ActualStart.IsZero() {
			out = append(out, q.Sched.Calendar.WorkBetween(in.ActualStart, in.ActualFinish))
		}
	}
	return out, nil
}

// MeanDuration averages Durations.
func (q *Engine) MeanDuration(activity string) (time.Duration, error) {
	ds, err := q.Durations(activity)
	if err != nil {
		return 0, err
	}
	if len(ds) == 0 {
		return 0, fmt.Errorf("query: activity %q has no completed executions", activity)
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds)), nil
}

// Estimate reports the current plan's estimate for an activity.
func (q *Engine) Estimate(activity string) (sched.Instance, error) {
	_, p, err := q.Sched.CurrentPlan()
	if err != nil {
		return sched.Instance{}, err
	}
	if p == nil {
		return sched.Instance{}, fmt.Errorf("query: no plan exists")
	}
	_, in, err := q.Sched.Instance(p, activity)
	if err != nil {
		return sched.Instance{}, err
	}
	return *in, nil
}

// Slip reports the current working-time slip of an activity under the
// current plan at time now (zero when on schedule).
func (q *Engine) Slip(activity string, now time.Time) (time.Duration, error) {
	_, p, err := q.Sched.CurrentPlan()
	if err != nil {
		return 0, err
	}
	if p == nil {
		return 0, fmt.Errorf("query: no plan exists")
	}
	sts, err := q.Sched.Status(p, now)
	if err != nil {
		return 0, err
	}
	for _, st := range sts {
		if st.Activity == activity {
			return st.Slip, nil
		}
	}
	return 0, fmt.Errorf("query: activity %q not in current plan", activity)
}

// Lineage reports the plan-evolution chain of the current plan, oldest
// first (schedule metadata query).
func (q *Engine) Lineage() ([]string, error) {
	e, p, err := q.Sched.CurrentPlan()
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("query: no plan exists")
	}
	chain, err := q.Sched.Lineage(e.ID)
	if err != nil {
		return nil, err
	}
	return append(chain, e.ID), nil
}

// ResourceLoad sums, per resource, the planned working time assigned under
// the current plan.
func (q *Engine) ResourceLoad() (map[string]time.Duration, error) {
	_, p, err := q.Sched.CurrentPlan()
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("query: no plan exists")
	}
	_, insts, err := q.Sched.Instances(p)
	if err != nil {
		return nil, err
	}
	load := make(map[string]time.Duration)
	for _, in := range insts {
		for _, r := range in.Resources {
			load[r] += in.EstWork
		}
	}
	return load, nil
}

// Iterations reports how many runs each completed task of an activity
// took, using the execution space.
func (q *Engine) Iterations(activity string) (int, error) {
	if q.Exec == nil {
		return 0, fmt.Errorf("query: no execution space attached")
	}
	_, runs, err := q.Exec.Runs(activity)
	if err != nil {
		return 0, err
	}
	return len(runs), nil
}

// Eval parses and answers one textual query. Supported forms:
//
//	duration of <activity>        last completed actual duration
//	durations of <activity>       all completed actual durations
//	mean duration of <activity>   average completed duration
//	estimate of <activity>        current plan estimate and dates
//	slip of <activity> at <RFC3339>   slip against the current plan
//	plans                         list every plan version
//	milestones                    milestone report for the current plan
//	lineage                       plan evolution chain
//	load                          planned work per resource
//	runs of <activity>            run count from the execution space
func (q *Engine) Eval(text string) (string, error) {
	fields := strings.Fields(strings.TrimSpace(text))
	if len(fields) == 0 {
		return "", fmt.Errorf("query: empty query")
	}
	join := strings.Join(fields, " ")
	switch {
	case strings.HasPrefix(join, "mean duration of "):
		act := strings.TrimPrefix(join, "mean duration of ")
		d, err := q.MeanDuration(act)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("mean duration of %s = %s", act, fmtDur(d)), nil
	case strings.HasPrefix(join, "durations of "):
		act := strings.TrimPrefix(join, "durations of ")
		ds, err := q.Durations(act)
		if err != nil {
			return "", err
		}
		if len(ds) == 0 {
			return fmt.Sprintf("%s has no completed executions", act), nil
		}
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = fmtDur(d)
		}
		return fmt.Sprintf("durations of %s = [%s]", act, strings.Join(parts, " ")), nil
	case strings.HasPrefix(join, "duration of "):
		act := strings.TrimPrefix(join, "duration of ")
		d, err := q.LastDuration(act)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("duration of %s (last execution) = %s", act, fmtDur(d)), nil
	case strings.HasPrefix(join, "estimate of "):
		act := strings.TrimPrefix(join, "estimate of ")
		in, err := q.Estimate(act)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("estimate of %s = %s (%s), planned %s .. %s",
			act, fmtDur(in.EstWork), in.Basis,
			in.PlannedStart.Format("2006-01-02 15:04"),
			in.PlannedFinish.Format("2006-01-02 15:04")), nil
	case strings.HasPrefix(join, "slip of "):
		rest := strings.TrimPrefix(join, "slip of ")
		act, now, err := splitAt(rest)
		if err != nil {
			return "", err
		}
		d, err := q.Slip(act, now)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("slip of %s = %s", act, fmtDur(d)), nil
	case join == "plans":
		c := q.Sched.Reader().Container(sched.PlanContainer)
		if c == nil || c.Len() == 0 {
			return "no plans exist", nil
		}
		var parts []string
		for i := 0; i < c.Len(); i++ {
			e := c.At(i)
			var p sched.Plan
			if err := e.Decode(&p); err != nil {
				return "", err
			}
			parts = append(parts, fmt.Sprintf("v%d(targets %s, finish %s)",
				p.Version, strings.Join(p.Targets, "+"), p.Finish.Format("2006-01-02")))
		}
		return "plans: " + strings.Join(parts, " "), nil
	case join == "milestones":
		_, p, err := q.Sched.CurrentPlan()
		if err != nil {
			return "", err
		}
		if p == nil {
			return "", fmt.Errorf("query: no plan exists")
		}
		report, err := q.Sched.MilestoneReport(p)
		if err != nil {
			return "", err
		}
		if len(report) == 0 {
			return "no milestones set", nil
		}
		var parts []string
		for _, m := range report {
			state := "pending"
			if m.Achieved {
				state = "achieved"
			}
			parts = append(parts, fmt.Sprintf("%s(%s, margin %s)", m.Name, state, fmtDur(m.Margin)))
		}
		return "milestones: " + strings.Join(parts, " "), nil
	case join == "lineage":
		chain, err := q.Lineage()
		if err != nil {
			return "", err
		}
		return "plan lineage: " + strings.Join(chain, " -> "), nil
	case join == "load":
		load, err := q.ResourceLoad()
		if err != nil {
			return "", err
		}
		if len(load) == 0 {
			return "no resources assigned", nil
		}
		names := make([]string, 0, len(load))
		for r := range load {
			names = append(names, r)
		}
		sort.Strings(names)
		var parts []string
		for _, r := range names {
			parts = append(parts, fmt.Sprintf("%s=%s", r, fmtDur(load[r])))
		}
		return "planned load: " + strings.Join(parts, " "), nil
	case strings.HasPrefix(join, "runs of "):
		act := strings.TrimPrefix(join, "runs of ")
		n, err := q.Iterations(act)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("runs of %s = %d", act, n), nil
	default:
		return "", fmt.Errorf("query: unrecognized query %q", join)
	}
}

// splitAt separates "<activity> at <RFC3339>" into its parts.
func splitAt(s string) (string, time.Time, error) {
	i := strings.LastIndex(s, " at ")
	if i < 0 {
		return "", time.Time{}, fmt.Errorf("query: slip query needs 'at <RFC3339 time>'")
	}
	act := strings.TrimSpace(s[:i])
	ts := strings.TrimSpace(s[i+4:])
	now, err := time.Parse(time.RFC3339, ts)
	if err != nil {
		return "", time.Time{}, fmt.Errorf("query: bad time %q: %w", ts, err)
	}
	return act, now, nil
}

// fmtDur renders a working duration tersely (e.g. "12h", "1.5h").
func fmtDur(d time.Duration) string {
	h := d.Hours()
	if h == float64(int64(h)) {
		return strconv.FormatInt(int64(h), 10) + "h"
	}
	return strconv.FormatFloat(h, 'f', 1, 64) + "h"
}
